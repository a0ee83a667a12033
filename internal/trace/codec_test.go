package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fig14ishEvent mimics the delta-friendly shape of a streaming workload:
// repeated call sites, advancing timestamps, cycling peers.
func fig14ishEvent(i int) Event {
	kinds := []Kind{KindIsend, KindIrecv, KindWait, KindAllreduce}
	return Event{
		Kind:   kinds[i%len(kinds)],
		Rank:   7,
		Peer:   int32(6 + i%2*2),
		Tag:    int32(100 + i%4),
		Comm:   1,
		Ctx:    uint32(10 + i%3),
		Size:   int64(8192 << (i % 3)),
		TStart: int64(i)*1500 + int64(i%7)*13,
		TEnd:   int64(i)*1500 + 600 + int64(i%5)*21,
	}
}

// TestPackV3RoundTrip checks a single v3 pack end to end: header fields,
// wire and logical lengths, every event, and the size reduction that is
// the format's reason to exist.
func TestPackV3RoundTrip(t *testing.T) {
	b := NewPackBuilderV3(3, 9, 64, 1<<16)
	const n = 200
	want := make([]Event, n)
	for i := range want {
		want[i] = fig14ishEvent(i)
		if b.Add(&want[i]) {
			t.Fatalf("pack full after %d events", i+1)
		}
	}
	buf := b.Take()
	var d StreamDecoder
	events := decodeStream(t, &d, [][]byte{buf})
	h := d.Header()
	if h.AppID != 3 || h.SrcRank != 9 || h.Count != n || h.RecordSize != 64 || h.Version != PackV3 {
		t.Fatalf("header = %+v", h)
	}
	if h.WireLen() != len(buf) {
		t.Fatalf("WireLen = %d, pack is %d bytes", h.WireLen(), len(buf))
	}
	if h.LogicalLen() != PackHeaderSize+n*64 {
		t.Fatalf("LogicalLen = %d", h.LogicalLen())
	}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	// The whole point: a delta-friendly workload must encode far smaller
	// than its logical v1 size.
	if len(buf)*2 > h.LogicalLen() {
		t.Fatalf("v3 pack is %d bytes for logical %d — expected at least 2x reduction", len(buf), h.LogicalLen())
	}
}

// Property: the v3 codec round-trips arbitrary (high-entropy, sign-mixed)
// event tensors, possibly across several packs of one stream.
func TestPackV3RoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		b := NewPackBuilderV3(uint32(rng.Intn(16)), int32(rng.Intn(1024)), MinRecordSize, 1<<20)
		want := make([]Event, count)
		var packs [][]byte
		for i := range want {
			want[i] = Event{
				Kind:   Kind(rng.Intn(int(kindCount)-1) + 1),
				Rank:   rng.Int31() - (1 << 30),
				Peer:   rng.Int31() - (1 << 30),
				Tag:    rng.Int31(),
				Comm:   rng.Uint32(),
				Ctx:    rng.Uint32(),
				Size:   rng.Int63() - (1 << 62),
				TStart: rng.Int63() - (1 << 62),
				TEnd:   rng.Int63() - (1 << 62),
			}
			if b.Add(&want[i]) {
				packs = append(packs, b.Take())
			}
		}
		if p := b.Take(); p != nil {
			packs = append(packs, p)
		}
		var got []Event
		var d StreamDecoder
		for _, p := range packs {
			if _, err := d.DecodeDispatch(p, func(e *Event) { got = append(got, *e) }); err != nil {
				t.Logf("decode: %v", err)
				return false
			}
		}
		if len(got) != count {
			t.Logf("decoded %d events, want %d", len(got), count)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("event %d = %+v, want %+v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPackV3BoundariesMatchV1 pins the capacity contract: on delta-friendly
// input a v3 builder closes its packs at the same event counts as a v1
// builder of equal capacity, so flush cadence is format-independent.
func TestPackV3BoundariesMatchV1(t *testing.T) {
	const capBytes = 4096
	b1 := NewPackBuilder(0, 0, 64, capBytes)
	b3 := NewPackBuilderV3(0, 0, 64, capBytes)
	var d StreamDecoder
	for i := 0; i < 500; i++ {
		ev := fig14ishEvent(i)
		f1, f3 := b1.Add(&ev), b3.Add(&ev)
		if f1 != f3 {
			t.Fatalf("event %d: v1 full=%v, v3 full=%v", i, f1, f3)
		}
		if f1 {
			p1, p3 := b1.Take(), b3.Take()
			h1, _, err := DecodePack(p1)
			if err != nil {
				t.Fatal(err)
			}
			n3, err := d.DecodeDispatch(p3, func(*Event) {})
			if err != nil {
				t.Fatal(err)
			}
			if h1.Count != n3 {
				t.Fatalf("pack counts differ: v1 %d, v3 %d", h1.Count, n3)
			}
			if len(p3) > capBytes {
				t.Fatalf("v3 pack of %d bytes exceeds capacity %d", len(p3), capBytes)
			}
		}
	}
}

// TestPackV3NeverExceedsCapacity drives the builder with high-entropy
// events, where v3 encoding is larger than v1: the worst-case bound must
// still keep every encoded pack within capBytes (= the stream block size).
func TestPackV3NeverExceedsCapacity(t *testing.T) {
	const capBytes = 2048
	rng := rand.New(rand.NewSource(42))
	b := NewPackBuilderV3(0, 0, MinRecordSize, capBytes)
	var d StreamDecoder
	for i := 0; i < 2000; i++ {
		ev := Event{
			Kind:   Kind(rng.Intn(int(kindCount)-1) + 1),
			Rank:   rng.Int31(),
			Peer:   rng.Int31(),
			Tag:    rng.Int31(),
			Comm:   rng.Uint32(),
			Ctx:    rng.Uint32(),
			Size:   rng.Int63() - (1 << 62),
			TStart: rng.Int63() - (1 << 62),
			TEnd:   rng.Int63() - (1 << 62),
		}
		if b.Add(&ev) {
			p := b.Take()
			if len(p) > capBytes {
				t.Fatalf("encoded pack of %d bytes exceeds capacity %d", len(p), capBytes)
			}
			if _, err := d.DecodeDispatch(p, func(*Event) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPeekHeaderV1RejectsV2 pins both rejections a legacy or mismatched
// pack meets: the retired v2 magic ("VPM2") is an unknown format to every
// reader, and the v1-only header check refuses a v3 pack by name.
func TestPeekHeaderV1RejectsV2(t *testing.T) {
	ev := fig14ishEvent(0)
	b1 := NewPackBuilder(0, 0, 48, 1<<12)
	b1.Add(&ev)
	v1 := b1.Take()
	if _, err := PeekHeaderV1(v1); err != nil {
		t.Fatalf("PeekHeaderV1 rejected a v1 pack: %v", err)
	}
	legacy := append([]byte(nil), v1...)
	binary.LittleEndian.PutUint32(legacy[0:], 0x324d5056) // "VPM2"
	for name, peek := range map[string]func([]byte) (Header, error){"PeekHeader": PeekHeader, "PeekHeaderV1": PeekHeaderV1} {
		if _, err := peek(legacy); err == nil || !strings.Contains(err.Error(), "bad pack magic") {
			t.Fatalf("%s on a v2 pack: err = %v, want a bad-magic error", name, err)
		}
	}
	var d StreamDecoder
	if err := d.Init(legacy); err == nil {
		t.Fatal("StreamDecoder accepted a v2 pack")
	}

	b3 := NewPackBuilderV3(0, 0, 48, 1<<12)
	b3.Add(&ev)
	v3 := b3.Take()
	if _, err := PeekHeader(v3); err != nil {
		t.Fatalf("version-aware PeekHeader rejected a v3 pack: %v", err)
	}
	_, err := PeekHeaderV1(v3)
	if err == nil {
		t.Fatal("PeekHeaderV1 accepted a v3 pack")
	}
	if !strings.Contains(err.Error(), "v3") || !strings.Contains(err.Error(), "only v1") {
		t.Fatalf("rejection should name both formats, got: %v", err)
	}
}

// TestMixedVersionStream decodes one writer's stream the way the adaptive
// recorder emits it when its controller toggles the format: v1 packs
// alternating with v3 packs, each v3 run opened by a fresh builder
// (dictionary base 0). One StreamDecoder must follow every switch.
func TestMixedVersionStream(t *testing.T) {
	var packs [][]byte
	var want []Event
	for p := 0; p < 6; p++ {
		version := PackV1
		if p%2 == 1 {
			version = PackV3
		}
		b, err := NewBuilder(version, 1, 0, 64, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			ev := fig14ishEvent(p*10 + i)
			want = append(want, ev)
			b.Add(&ev)
		}
		packs = append(packs, b.Take())
	}
	var got []Event
	var d StreamDecoder
	for p, buf := range packs {
		if err := d.Init(buf); err != nil {
			t.Fatalf("pack %d: %v", p, err)
		}
		wantVersion := PackV1 + 2*(p%2)
		if d.Header().Version != wantVersion {
			t.Fatalf("pack %d decoded as v%d, want v%d", p, d.Header().Version, wantVersion)
		}
		for d.Next() {
			got = append(got, *d.Event())
		}
		if err := d.Err(); err != nil {
			t.Fatalf("pack %d: %v", p, err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestGoldenV1Bytes pins the v1 wire format byte for byte, independent of
// the builder implementation: the default path must stay byte-identical
// to the seed.
func TestGoldenV1Bytes(t *testing.T) {
	ev := Event{
		Kind: KindSend, Rank: 3, Peer: 4, Tag: 99, Comm: 7, Ctx: 42,
		Size: 1 << 20, TStart: 1000, TEnd: 1250,
	}
	b := NewPackBuilder(5, 3, 48, 1<<12)
	b.Add(&ev)
	got := b.Take()

	want := make([]byte, PackHeaderSize+48)
	binary.LittleEndian.PutUint32(want[0:], 0x544d5056) // "VPMT"
	binary.LittleEndian.PutUint32(want[4:], 5)          // appID
	binary.LittleEndian.PutUint32(want[8:], 3)          // srcRank
	binary.LittleEndian.PutUint32(want[12:], 1)         // count
	binary.LittleEndian.PutUint32(want[16:], 48)        // recordSize
	rec := want[PackHeaderSize:]
	rec[0] = byte(KindSend)
	binary.LittleEndian.PutUint32(rec[4:], 3)
	binary.LittleEndian.PutUint32(rec[8:], 4)
	binary.LittleEndian.PutUint32(rec[12:], 99)
	binary.LittleEndian.PutUint32(rec[16:], 7)
	binary.LittleEndian.PutUint32(rec[20:], 42)
	binary.LittleEndian.PutUint64(rec[24:], 1<<20)
	binary.LittleEndian.PutUint64(rec[32:], 1000)
	binary.LittleEndian.PutUint64(rec[40:], 1250)
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 encoding drifted:\ngot  %x\nwant %x", got, want)
	}
}

// TestGoldenV3Header pins the v3 header layout (the body is covered by the
// round-trip tests; the header must stay fixed for cross-version readers).
func TestGoldenV3Header(t *testing.T) {
	ev := fig14ishEvent(0)
	b := NewPackBuilderV3(5, 3, 256, 1<<12)
	b.Add(&ev)
	got := b.Take()
	if magic := binary.LittleEndian.Uint32(got[0:]); magic != 0x334d5056 {
		t.Fatalf("magic = %#x, want 0x334d5056 (VPM3)", magic)
	}
	if appID := binary.LittleEndian.Uint32(got[4:]); appID != 5 {
		t.Fatalf("appID = %d", appID)
	}
	if rank := binary.LittleEndian.Uint32(got[8:]); rank != 3 {
		t.Fatalf("srcRank = %d", rank)
	}
	if count := binary.LittleEndian.Uint32(got[12:]); count != 1 {
		t.Fatalf("count = %d", count)
	}
	if rs := binary.LittleEndian.Uint32(got[16:]); rs != 256 {
		t.Fatalf("recordSize = %d", rs)
	}
	if bodyLen := binary.LittleEndian.Uint32(got[20:]); int(bodyLen) != len(got)-PackHeaderSize {
		t.Fatalf("bodyLen = %d, body is %d bytes", bodyLen, len(got)-PackHeaderSize)
	}
}

func TestNewBuilderVersions(t *testing.T) {
	for _, c := range []struct {
		version int
		want    int
	}{{0, PackV1}, {PackV1, PackV1}, {PackV3, PackV3}} {
		b, err := NewBuilder(c.version, 0, 0, 48, 1<<12)
		if err != nil {
			t.Fatalf("version %d: %v", c.version, err)
		}
		if b.Version() != c.want {
			t.Fatalf("NewBuilder(%d).Version() = %d, want %d", c.version, b.Version(), c.want)
		}
	}
	// 2 is the retired per-pack-dictionary format.
	for _, v := range []int{2, 4} {
		if _, err := NewBuilder(v, 0, 0, 48, 1<<12); err == nil {
			t.Fatalf("unknown version %d accepted", v)
		}
	}
}

// TestPackReaderReuse checks that one reader instance decodes pack after
// pack, across record sizes, without leaking cursor state between packs.
func TestPackReaderReuse(t *testing.T) {
	var r PackReader
	for p := 0; p < 4; p++ {
		b := NewPackBuilder(0, int32(p), 48+16*p, 1<<12)
		want := make([]Event, 20)
		for i := range want {
			want[i] = fig14ishEvent(p*31 + i)
			b.Add(&want[i])
		}
		buf := b.Take()
		if err := r.Init(buf); err != nil {
			t.Fatal(err)
		}
		for i := 0; r.Next(); i++ {
			if *r.Event() != want[i] {
				t.Fatalf("pack %d event %d = %+v, want %+v", p, i, *r.Event(), want[i])
			}
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackV3CorruptBody exercises the stream decoder's bounds checks on
// systematically corrupted bodies: every outcome must be a clean error.
func TestPackV3CorruptBody(t *testing.T) {
	b := NewPackBuilderV3(1, 2, 48, 1<<12)
	for i := 0; i < 30; i++ {
		ev := fig14ishEvent(i)
		b.Add(&ev)
	}
	clean := b.Take()
	decode := func(buf []byte) error {
		var d StreamDecoder
		_, err := d.DecodeDispatch(buf, func(*Event) {})
		return err
	}
	if err := decode(clean); err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic or over-read.
	for n := 0; n < len(clean); n++ {
		if err := decode(clean[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Single-byte corruptions must never panic; errors are acceptable and
	// so are silent mis-decodes of value bytes (no integrity layer).
	for i := 0; i < len(clean); i++ {
		mut := append([]byte(nil), clean...)
		mut[i] ^= 0xFF
		_ = decode(mut)
	}
	// A dictionary delta longer than the event count must error: shrink
	// Count to 1 with the opener's multi-entry delta left in place.
	mut := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(mut[12:], 1) // count=1, dictAdd stays >1
	if err := decode(mut); err == nil {
		t.Fatal("dictAdd > count decoded without error")
	}
}

func BenchmarkPackEncodeV3(b *testing.B) {
	pb := NewPackBuilderV3(0, 0, 48, 1<<20)
	ev := fig14ishEvent(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pb.Add(&ev) {
			pb.Reset(pb.Take())
		}
	}
}

// BenchmarkPackReader times the zero-copy decode loop of each format:
// the stateless PackReader for v1 and the StreamDecoder for v3 (each
// iteration re-decodes one stream-opening pack, so the dictionary delta
// is parsed every time — an upper bound on steady-state v3 cost).
func BenchmarkPackReader(b *testing.B) {
	for _, bc := range []struct {
		name    string
		version int
	}{{"v1", PackV1}, {"v3", PackV3}} {
		b.Run(bc.name, func(b *testing.B) {
			pb, err := NewBuilder(bc.version, 0, 0, 48, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			for i := 0; i < 20000 && buf == nil; i++ {
				ev := fig14ishEvent(i)
				if pb.Add(&ev) {
					buf = pb.Take()
				}
			}
			if buf == nil {
				buf = pb.Take()
			}
			h, _ := PeekHeader(buf)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			var r PackReader
			var d StreamDecoder
			var sum int64
			fold := func(e *Event) { sum += e.Size }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.version == PackV3 {
					if _, err := d.DecodeDispatch(buf, fold); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if err := r.Init(buf); err != nil {
					b.Fatal(err)
				}
				for r.Next() {
					fold(r.Event())
				}
			}
			_ = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h.Count), "ns/event")
		})
	}
}
