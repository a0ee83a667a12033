package trace

import "testing"

// TestPackBuilderReuseAllocationFree pins the recycling contract: a builder
// that is Reset into the buffer its previous Take returned runs the
// fill → take → reset cycle with zero allocations.
func TestPackBuilderReuseAllocationFree(t *testing.T) {
	b := NewPackBuilder(1, 0, 64, 4096)
	ev := sampleEvent(3)
	allocs := testing.AllocsPerRun(50, func() {
		for !b.Add(&ev) {
		}
		buf := b.Take()
		if buf == nil {
			t.Error("Take returned nil for a full pack")
		}
		b.Reset(buf)
	})
	if allocs != 0 {
		t.Errorf("recycled pack cycle allocated %.1f objects per run, want 0", allocs)
	}
}

// TestPackReaderAllocationFree pins the zero-copy decode contract:
// iterating v1 packs allocates nothing per event — or per pack.
func TestPackReaderAllocationFree(t *testing.T) {
	packs := make([][]byte, 2)
	for pi, recordSize := range []int{MinRecordSize, 64} {
		b := NewPackBuilder(1, 0, recordSize, 1<<14)
		for i := 0; i < 100; i++ {
			ev := fig14ishEvent(i)
			b.Add(&ev)
		}
		packs[pi] = b.Take()
	}
	var r PackReader
	var sum int64
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range packs {
			if err := r.Init(p); err != nil {
				t.Error(err)
				return
			}
			for r.Next() {
				sum += r.Event().Size
			}
			if r.Err() != nil {
				t.Error(r.Err())
			}
		}
	})
	if allocs != 0 {
		t.Errorf("PackReader decode loop allocated %.1f objects per run, want 0", allocs)
	}
	_ = sum
}

// TestPackBuilderResetClearsPadding guards the encoding invariant the
// recycling relies on: record bytes beyond the fixed 48-byte core must
// read zero even when the builder adopts a dirty recycled buffer.
func TestPackBuilderResetClearsPadding(t *testing.T) {
	const recordSize = 64
	b := NewPackBuilder(1, 0, recordSize, 4096)
	dirty := make([]byte, 4096)
	for i := range dirty {
		dirty[i] = 0xAB
	}
	b.Reset(dirty)
	ev := sampleEvent(1)
	b.Add(&ev)
	pack := b.Take()
	rec := pack[PackHeaderSize : PackHeaderSize+recordSize]
	for i := MinRecordSize; i < recordSize; i++ {
		if rec[i] != 0 {
			t.Fatalf("padding byte %d = %#x after Reset with a dirty buffer, want 0", i, rec[i])
		}
	}
	// Round-trip through the decoder for good measure.
	_, evs, err := DecodePack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0] != ev {
		t.Fatalf("decoded %+v, want %+v", evs, ev)
	}
}

// TestPackBuilderV3ReuseAllocationFree pins the recycling contract for
// the v3 builder: once the persistent dictionary and column scratch are
// warm, the fill → take → reset cycle allocates nothing — the stream
// dictionary is the whole point, so it must not cost garbage per pack.
func TestPackBuilderV3ReuseAllocationFree(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 64, 4096)
	events := make([]Event, 8)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	// Warm-up: intern the dictionary, size the column scratch and output.
	i := 0
	for !b.Add(&events[i%len(events)]) {
		i++
	}
	b.Reset(b.Take())
	allocs := testing.AllocsPerRun(50, func() {
		j := 0
		for !b.Add(&events[j%len(events)]) {
			j++
		}
		buf := b.Take()
		if buf == nil {
			t.Error("Take returned nil for a full pack")
		}
		b.Reset(buf)
	})
	if allocs != 0 {
		t.Errorf("recycled v3 pack cycle allocated %.1f objects per run, want 0", allocs)
	}
}

// TestStreamDecoderFusedAllocationFree pins the fused decode→dispatch
// contract: once the decoder's dictionary is warm, DecodeDispatch moves
// events from wire bytes into the fold callback with zero allocations —
// no materialized records, no intermediate slices.
func TestStreamDecoderFusedAllocationFree(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 64, 1<<12)
	packs := make([][]byte, 0, 8)
	for i := 0; len(packs) < 4; i++ {
		ev := fig14ishEvent(i)
		if b.Add(&ev) {
			packs = append(packs, b.Take())
			b.Reset(nil)
		}
	}
	var d StreamDecoder
	var sum int64
	fold := func(e *Event) { sum += e.Size }
	// Warm-up sizes the persistent dictionary.
	if _, err := d.DecodeDispatch(packs[0], fold); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range packs[1:] {
			if _, err := d.DecodeDispatch(p, fold); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("fused decode dispatched with %.1f allocations per run, want 0", allocs)
	}
	_ = sum
}
