package serviced

import (
	"testing"

	"repro/internal/client"
	"repro/internal/trace"
)

// TestParallelWorkersByteIdentical is the serving-side golden test for
// the lane pool: the same captured workload replayed against a Workers=1
// daemon and a Workers=4 daemon — with Diff polls and a client-side
// replayer verifying snapshot convergence mid-stream — must produce
// byte-identical final reports, both equal to the in-process path. Runs
// for v1 packs (board-format decode on the lanes) and v3 (per-writer
// stream decoders on the lanes).
func TestParallelWorkersByteIdentical(t *testing.T) {
	spec := [4]int{1, 'A', 16, 2} // LU.A@16
	for _, pack := range []int{trace.PackV1, trace.PackV3} {
		opts := testOpts
		opts.PackVersion = pack
		cp := capture(t, opts, spec)
		want := inProcessReport(t, opts, spec)
		for _, workers := range []int{1, 4} {
			d, addr := startTCP(t, Options{Workers: workers})
			c, err := client.Dial(addr, cp.PackVersion)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Replay(cp, 3) // Diff every 3 packs + final Verify
			if err != nil {
				t.Fatalf("v%d workers=%d: %v", pack, workers, err)
			}
			c.Shutdown()
			if rep.Rendered != want {
				t.Errorf("v%d workers=%d report diverged from in-process path", pack, workers)
			}
			st, err := d.Status()
			if err != nil {
				t.Fatal(err)
			}
			if st.Workers != workers {
				t.Errorf("status workers = %d, want %d", st.Workers, workers)
			}
			if workers > 1 && st.ReplicaMerges == 0 {
				t.Errorf("v%d workers=%d: no replica merges recorded", pack, workers)
			}
			if workers == 1 && st.ReplicaMerges != 0 {
				t.Errorf("v%d workers=1: %d replica merges on the synchronous path", pack, st.ReplicaMerges)
			}
		}
	}
}

// TestParallelSessionStatus checks the live-session view: while a
// Workers>1 session is open, Status lists it with its per-session epoch,
// pack and replica-merge counters; after close the list empties and the
// merges fold into the daemon aggregate.
func TestParallelSessionStatus(t *testing.T) {
	opts := testOpts
	opts.PackVersion = trace.PackV3
	cp := capture(t, opts, [4]int{0, 'A', 16, 2})

	d, addr := startTCP(t, Options{Workers: 2})
	c, err := client.Dial(addr, cp.PackVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	id, err := c.Register(client.SessionMetaFromCapture(cp))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cp.Packs {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot forces a seal — the lane flush barrier — so the merges are
	// recorded by the time the reply arrives.
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(st.Sessions))
	}
	ss := st.Sessions[0]
	if ss.ID != id || ss.Workers != 2 {
		t.Fatalf("session status = %+v", ss)
	}
	if ss.Epoch == 0 || ss.Packs == 0 || ss.Events == 0 {
		t.Fatalf("session counters empty: %+v", ss)
	}
	if ss.ReplicaMerges == 0 || ss.ReplicaMergeNs == 0 {
		t.Fatalf("session replica counters empty: %+v", ss)
	}
	if st.ReplicaMerges < ss.ReplicaMerges {
		t.Fatalf("aggregate merges %d < live session's %d", st.ReplicaMerges, ss.ReplicaMerges)
	}

	if _, err := c.Close(client.CloseMetaFromCapture(cp)); err != nil {
		t.Fatal(err)
	}
	st, err = d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 0 {
		t.Fatalf("closed session still listed: %+v", st.Sessions)
	}
	if st.ReplicaMerges < ss.ReplicaMerges {
		t.Fatalf("retired merges %d lost the session's %d", st.ReplicaMerges, ss.ReplicaMerges)
	}
}

// TestParallelLaneDecodeError pins async error surfacing: a corrupt data
// pack folded on a lane must fail the session at the next barrier (or
// enqueue), not be silently dropped.
func TestParallelLaneDecodeError(t *testing.T) {
	opts := testOpts
	opts.PackVersion = trace.PackV3
	cp := capture(t, opts, [4]int{0, 'A', 16, 2})

	d, _ := startTCP(t, Options{Workers: 2})
	c := pipeClient(t, d, cp.PackVersion)
	if _, err := c.Register(client.SessionMetaFromCapture(cp)); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), cp.Packs[0].Data...)
	bad[len(bad)-1] ^= 0xff // corrupt the record area, header stays valid
	if err := c.SendPack(uint32(cp.Packs[0].Src), bad); err != nil {
		t.Fatal(err)
	}
	// The decode error surfaces at the seal barrier the snapshot forces.
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("snapshot after corrupt pack succeeded")
	}
}
