package blackboard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// TestPostWithNoListenersLedgered is the regression test for the post
// ledger: an entry posted to a type no KS listens to is discarded
// undelivered, so it must land in Stats.Dropped (and the telemetry drop
// counter) — Posted == Dropped when nothing listens. The same path is
// taken by a post that loads the table between an Unregister and the
// Register that replaces it (TestReRegistrationRaceLedger).
func TestPostWithNoListenersLedgered(t *testing.T) {
	bb := New(Config{Workers: 2})
	reg := telemetry.NewRegistry()
	m := telemetry.NewBoardMetrics(reg)
	bb.SetTelemetry(m)
	const posts = 7
	for i := 0; i < posts; i++ {
		bb.Post(TypeID("l", "nobody"), 1, nil)
	}
	bb.Close()
	st := bb.Stats()
	if st.Posted != posts || st.Dropped != st.Posted {
		t.Fatalf("posted %d, dropped %d: a post with no listener must be ledgered as dropped", st.Posted, st.Dropped)
	}
	if got := reg.Counter("bb.dropped").Value(); got != posts {
		t.Fatalf("telemetry drop counter = %d, want %d", got, posts)
	}
}

// TestCrossShardSensitivitySet checks that a KS sensitive to several
// types, each posted from its own goroutine, receives complete input sets
// in sensitivity order: the per-KS slot state, not the posting order,
// assembles the job.
func TestCrossShardSensitivitySet(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	types := []Type{TypeID("multi", "a"), TypeID("multi", "b"), TypeID("multi", "c")}

	var jobs atomic.Int64
	var bad atomic.Int64
	err := bb.Register(KS{
		Name:          "cross",
		Sensitivities: types,
		Op: func(_ *Blackboard, in []*Entry) {
			jobs.Add(1)
			for i, e := range in {
				if e.Type != types[i] {
					bad.Add(1)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	var wg sync.WaitGroup
	for _, ty := range types {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				bb.Post(ty, 1, nil)
			}
		}()
	}
	wg.Wait()
	bb.Drain()
	if got := jobs.Load(); got != rounds {
		t.Fatalf("multi-type KS ran %d jobs, want %d", got, rounds)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d inputs arrived in the wrong slot", bad.Load())
	}
	if st := bb.Stats(); st.Dropped != 0 {
		t.Fatalf("%d entries dropped on an uncontended multi-type set", st.Dropped)
	}
}

// TestOfferAfterTakeDiscards pins the re-registration discard race
// directly: a poster holding a published snapshot may offer to a state
// TakeKS already removed. The offer must discard the entry (and the
// board must ledger it) — parking it on a dead state would leak it.
func TestOfferAfterTakeDiscards(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	ty := TypeID("race", "victim")
	if err := bb.Register(KS{
		Name:          "victim",
		Sensitivities: []Type{ty, ty}, // two slots so a lone entry parks
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	bb.regMu.RLock()
	st := bb.byName["victim"]
	bb.regMu.RUnlock()

	// Remove the KS, then replay the stale-snapshot path by hand.
	if got := bb.TakeKS("victim"); got == nil {
		t.Fatal("TakeKS found nothing")
	}
	e := NewEntry(ty, 1, nil)
	e.Retain() // the poster's per-listener reference
	inputs, ok := st.offer(e)
	if ok || inputs != nil {
		t.Fatalf("offer to a taken state accepted the entry (ok=%v inputs=%v)", ok, inputs)
	}
	if e.Refs() != 1 {
		t.Fatalf("discarded offer left %d refs, want the caller's 1", e.Refs())
	}
	e.Release()
}

// TestReRegistrationRaceLedger hammers post against unregister/register
// cycles under the same name and checks the delivery ledger stays
// complete: every posted entry is either delivered to a job, parked, or
// counted in Dropped — none vanish. Run with -race this also exercises
// the copy-on-write table publication.
func TestReRegistrationRaceLedger(t *testing.T) {
	bb := New(Config{Workers: 4})
	ty := TypeID("race", "churn")
	var delivered atomic.Int64
	reg := func() error {
		return bb.Register(KS{
			Name:          "churn",
			Sensitivities: []Type{ty},
			Op: func(_ *Blackboard, in []*Entry) {
				delivered.Add(int64(len(in)))
			},
		})
	}
	if err := reg(); err != nil {
		t.Fatal(err)
	}

	const posts = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < posts; i++ {
			bb.Post(ty, 1, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			bb.Unregister("churn")
			if err := reg(); err != nil {
				t.Errorf("re-register: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	bb.Drain()
	// Late parked entries on the final registration are delivered by
	// taking the KS (single-slot KS: nothing should be parked, but the
	// take also flushes any in-flight slot state).
	for _, slot := range bb.TakeKS("churn") {
		for _, e := range slot {
			delivered.Add(1)
			e.Release()
		}
	}
	bb.Close()
	st := bb.Stats()
	if delivered.Load()+st.Dropped != posts {
		t.Fatalf("ledger leak: %d delivered + %d dropped != %d posted",
			delivered.Load(), st.Dropped, posts)
	}
	if st.Dropped == 0 {
		t.Logf("note: churn run hit no discard races this time (valid, just unlucky)")
	}
}

// TestRegisterDuringPostHammer drives concurrent posts on many types
// against concurrent registrations; under -race this pins the
// copy-on-write invariant that published maps and listener slices are
// never mutated in place.
func TestRegisterDuringPostHammer(t *testing.T) {
	bb := New(Config{Workers: 4})
	defer bb.Close()
	types := make([]Type, 16)
	for i := range types {
		types[i] = TypeID("hammer", fmt.Sprintf("t%d", i))
	}
	var wg sync.WaitGroup
	wg.Add(len(types))
	for _, ty := range types {
		ty := ty
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				bb.Post(ty, 1, nil)
			}
		}()
	}
	var delivered atomic.Int64
	for i := 0; i < 32; i++ {
		err := bb.Register(KS{
			Name:          fmt.Sprintf("late-%d", i),
			Sensitivities: []Type{types[i%len(types)]},
			Op:            func(_ *Blackboard, in []*Entry) { delivered.Add(int64(len(in))) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	bb.Drain()
	// No assertion on delivered counts (registration racing posts sees a
	// prefix of them); the test's value is the -race run plus liveness.
	if bb.Stats().Posted != int64(len(types))*500 {
		t.Fatalf("posted %d, want %d", bb.Stats().Posted, len(types)*500)
	}
}

// TestPostEntryAllocationFree pins the satellite contract: posting to a
// registered single-sensitivity KS allocates only what the job itself
// needs — the listener lookup allocates nothing (no per-post snapshot
// copy of the listener slice).
func TestPostEntryAllocationFree(t *testing.T) {
	bb := New(Config{Workers: 1})
	defer bb.Close()
	ty := TypeID("alloc", "t")
	if err := bb.Register(KS{
		Name:          "sink",
		Sensitivities: []Type{ty, ty}, // never fires: entries park and rotate
		Op:            func(_ *Blackboard, _ []*Entry) {},
	}); err != nil {
		t.Fatal(err)
	}
	// Two-slot KS: each post parks on one slot; pairing posts makes every
	// pair produce exactly one job. Budget per pair: 2 entries, 1 inputs
	// slice, ~2 amortized slice growths (pend + job FIFO). A board that
	// copied the listener slice per post would add two more per pair,
	// which is the regression this guards against.
	allocs := testing.AllocsPerRun(100, func() {
		bb.Post(ty, 1, nil)
		bb.Post(ty, 1, nil)
	})
	bb.Drain()
	if allocs > 5 {
		t.Fatalf("post pair allocated %.1f objects, want <= 5 (no listener snapshot copies)", allocs)
	}
}
