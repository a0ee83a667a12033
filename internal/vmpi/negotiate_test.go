package vmpi

import (
	"strings"
	"testing"
)

// TestStreamFormatNegotiation covers negotiation with an older writer:
// one announcing pack format 2 (the retired per-pack dictionary codec)
// at open has v1 — the highest format both sides still speak — recorded
// per peer on the reader before the first data block is served, and the
// payload path is unchanged.
func TestStreamFormatNegotiation(t *testing.T) {
	var got []string
	var peerFormat int
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetPackFormat(2)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			if err := st.Write([]byte("packed"), 6); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
				got = append(got, string(blk.Payload))
			}
			peerFormat = st.PeerFormat(0) // writer is universe rank 0
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
	)
	if len(got) != 1 || got[0] != "packed" {
		t.Fatalf("payload = %v", got)
	}
	if peerFormat != 1 {
		t.Fatalf("reader recorded peer format %d, want 1", peerFormat)
	}
}

// TestStreamFormatDefaultIsV1 pins the compatibility contract: a writer
// that never calls SetPackFormat sends no hello, and the reader reports
// the v1 default for it — the message sequence is identical to the seed.
func TestStreamFormatDefaultIsV1(t *testing.T) {
	var peerFormat int
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			if err := st.Write(nil, 64); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetMaxPackFormat(1) // a strict v1 reader must still accept this writer
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
			}
			peerFormat = st.PeerFormat(0)
		}},
	)
	if peerFormat != 1 {
		t.Fatalf("default peer format = %d, want 1", peerFormat)
	}
}

// TestStreamFormatRejectedAboveCeiling: a reader capped below the writer's
// announced format fails its Read with an error naming both versions,
// instead of misparsing packs.
func TestStreamFormatRejectedAboveCeiling(t *testing.T) {
	var readErr error
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetPackFormat(3)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			// Fire-and-forget: the reader errors out, so skip Close (which
			// would wait for a reader that is gone).
			_ = st.Write([]byte("packed"), 6)
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetMaxPackFormat(1)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			_, readErr = st.Read(false)
		}},
	)
	if readErr == nil {
		t.Fatal("reader accepted a format above its ceiling")
	}
	if !strings.Contains(readErr.Error(), "format v3") || !strings.Contains(readErr.Error(), "up to v1") {
		t.Fatalf("rejection should name both formats, got: %v", readErr)
	}
}

// TestSetPackFormatValidation pins the API edges: version bounds and the
// no-reconfiguration-after-open rule.
func TestSetPackFormatValidation(t *testing.T) {
	st := &Stream{}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("SetPackFormat(-1)", func() { st.SetPackFormat(-1) })
	mustPanic("SetMaxPackFormat(0)", func() { st.SetMaxPackFormat(0) })
	st.SetPackFormat(2)
	if st.PackFormat() != 2 {
		t.Fatalf("PackFormat = %d", st.PackFormat())
	}
	if (&Stream{}).PackFormat() != 1 {
		t.Fatal("default PackFormat should be 1")
	}
	if (&Stream{}).MaxPackFormat() != DefaultMaxPackFormat {
		t.Fatal("default MaxPackFormat should be DefaultMaxPackFormat")
	}
	if (&Stream{}).PeerFormat(0) != 1 {
		t.Fatal("unknown peer should default to format 1")
	}
	capped := &Stream{}
	capped.SetMaxPackFormat(2)
	if capped.MaxPackFormat() != 1 {
		t.Fatalf("a ceiling of 2 negotiates to v%d, want v1", capped.MaxPackFormat())
	}
}

// TestStreamFormatV3Negotiation: the default reader ceiling admits a v3
// hello and records v3 for the writer.
func TestStreamFormatV3Negotiation(t *testing.T) {
	var peerFormat int
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetPackFormat(3)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			if err := st.Write([]byte("dictionary"), 10); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					t.Error(err)
					return
				}
				if blk == nil {
					break
				}
			}
			peerFormat = st.PeerFormat(0)
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
	)
	if peerFormat != 3 {
		t.Fatalf("reader recorded peer format %d, want 3", peerFormat)
	}
}

// TestStreamFormatV3RejectedByV2Reader: a reader that lowered its ceiling
// to 2 negotiates it down to v1 (the v2 codec is retired) and refuses a
// v3 writer with an error naming both versions.
func TestStreamFormatV3RejectedByV2Reader(t *testing.T) {
	var readErr error
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetPackFormat(3)
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			_ = st.Write([]byte("dictionary"), 10)
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			st.SetMaxPackFormat(2)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			_, readErr = st.Read(false)
		}},
	)
	if readErr == nil {
		t.Fatal("v2-capped reader accepted a v3 writer")
	}
	if !strings.Contains(readErr.Error(), "format v3") || !strings.Contains(readErr.Error(), "up to v1") {
		t.Fatalf("rejection should name both formats, got: %v", readErr)
	}
}
