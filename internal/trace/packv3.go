// Pack wire format v3: delta+varint event columns with a persistent
// per-stream (Kind, Comm, Ctx) dictionary.
//
// The v1 format ships each event as a fixed-layout record (48 bytes plus
// context padding). Within one stream almost every field is monotone or
// near-constant: timestamps advance by small increments, ranks and
// communicators repeat, call sites cycle through a handful of contexts.
// v3 exploits that: events are split into columns, each column stores
// per-event deltas as zigzag varints, and the (Kind, Comm, Ctx) triple —
// the per-call context — is interned in a dictionary so a repeated call
// site costs one small index instead of 9+ bytes. The dictionary is a
// property of the stream, not the pack: the builder interns each triple
// once for the stream's lifetime and every pack carries only a
// dictionary-delta section — the entries first referenced by that pack —
// while the event columns index the full accumulated dictionary. After
// the first few packs of a steady workload the delta section is empty
// and a v3 pack is pure column data. On the streaming workloads of
// Figure 14 this cuts bytes per event several-fold, which is exactly the
// "measurements reduction" axis the paper optimizes: stream throughput is
// bytes-bound on the interconnect, so fewer bytes per event is more
// events per second for the same NIC.
//
// The price is state: decoding pack N requires the dictionary built from
// packs 1..N-1 of the same writer, so v3 packs must be decoded in
// per-writer order by a stateful StreamDecoder (the stream layer
// guarantees per-writer delivery order; the blackboard's worker pool does
// not, which is why v3 packs take the fused stream-ingest path instead of
// traveling the board — see analysis.FusedIngest).
//
// Wire layout (all integers little-endian, varints per encoding/binary):
//
//	offset 0  magic       uint32  = 0x334d5056 ("VPM3")
//	       4  appID       uint32
//	       8  srcRank     uint32
//	      12  count       uint32  events in the pack
//	      16  recordSize  uint32  logical v1 record size (accounting)
//	      20  bodyLen     uint32  encoded bytes after the header
//	      24  body:
//	          uvarint dictBase — stream dictionary size before this pack
//	          uvarint dictAdd  — entries introduced by this pack, then
//	              dictAdd entries of kind (1 byte), comm (uvarint),
//	              ctx (uvarint)
//	          7 columns, each uvarint colBytes followed by colBytes bytes:
//	              0  dictionary index per event  (uvarint, indexes the
//	                 full dictionary [0, dictBase+dictAdd))
//	              1  rank delta                  (zigzag varint)
//	              2  peer delta                  (zigzag varint)
//	              3  tag delta                   (zigzag varint)
//	              4  size delta                  (zigzag varint)
//	              5  tstart delta                (zigzag varint)
//	              6  duration (tEnd-tStart) delta (zigzag varint)
//
// Every delta chain starts from 0 at each pack, so only the dictionary is
// cross-pack state. Deltas are zigzag-encoded (not plain uvarint) so the
// format round-trips arbitrary event tensors — monotone streams pay one
// extra bit per field for that safety.
//
// dictBase makes loss detectable: a decoder whose dictionary disagrees
// with a pack's base fails loudly ("dictionary gap") instead of folding
// events under the wrong call sites. dictBase == 0 is a stream-dictionary
// restart (a recorder switching formats mid-run starts a fresh builder);
// the decoder resets and resynchronizes.
//
// A v3 pack carries the same events as the v1 pack of the same capacity
// (the builder fills by logical bytes, not encoded bytes), so pack
// boundaries, flush cadence and per-pack event counts are unchanged; only
// the bytes on the wire shrink. When the input is high-entropy (randomized
// fields, no repetition) v3 can exceed the logical size; the builder then
// closes the pack early so the encoded pack never exceeds its capacity.
package trace

import (
	"encoding/binary"
	"fmt"
)

const (
	packMagicV3 = 0x334d5056 // "VPM3" little-endian

	// numColumns is the fixed column count of the v3 body.
	numColumns = 7

	// worstPerEventV3 bounds the encoded growth of one Add: a fresh
	// dictionary entry (1 + 2×10), one index varint and six delta varints,
	// plus one byte of potential growth for each column-length prefix and
	// three for the dictionary prefixes (base and add count, one byte of
	// slack). Changing it moves pack boundaries on high-entropy input.
	worstPerEventV3 = (1 + 2*binary.MaxVarintLen64) + numColumns*binary.MaxVarintLen64 + numColumns + 3

	// maxStreamDict caps the persistent dictionary a decoder will grow on
	// behalf of one writer. Real instrumentation streams intern a few
	// dozen call sites; the cap only exists so a hostile stream cannot
	// make a decoder accrete unbounded state across packs.
	maxStreamDict = 1 << 20
)

// PackV3 is the persistent-dictionary column format.
const PackV3 = 3

// zigzag maps signed deltas onto unsigned varint space (small magnitudes
// of either sign stay small).
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// kctKey is a dictionary key: one (Kind, Comm, Ctx) triple.
type kctKey struct {
	kind Kind
	comm uint32
	ctx  uint32
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// PackBuilderV3 accumulates events into v3-encoded packs, keeping the
// (Kind, Comm, Ctx) dictionary across the take → reset cycle: entries are
// interned once per stream and each Take ships only the delta section.
// The steady-state fill → take → reset cycle allocates nothing. The zero value is not usable — use NewPackBuilderV3.
type PackBuilderV3 struct {
	appID      uint32
	srcRank    int32
	recordSize int
	capBytes   int

	// dict[:base] has been shipped in previous packs; dict[base:] is this
	// pack's delta section. Reset without Take rolls the delta back so a
	// discarded pack never desynchronizes the stream dictionary.
	dict      []kctKey
	dictIdx   map[kctKey]uint32
	base      int
	dictBytes int // encoded size of the pending delta entries

	cols  [numColumns][]byte
	count int

	prevRank, prevPeer, prevTag   int64
	prevSize, prevTStart, prevDur int64

	out []byte
}

// NewPackBuilderV3 creates a v3 builder with the same capacity semantics
// as the v1 builder: the pack closes when another logical (v1-sized)
// record would no longer fit, so pack boundaries are format-independent.
func NewPackBuilderV3(appID uint32, srcRank int32, recordSize, packBytes int) *PackBuilderV3 {
	if recordSize < MinRecordSize {
		recordSize = MinRecordSize
	}
	if packBytes < PackHeaderSize+recordSize {
		packBytes = PackHeaderSize + recordSize
	}
	if packBytes < PackHeaderSize+worstPerEventV3 {
		packBytes = PackHeaderSize + worstPerEventV3
	}
	return &PackBuilderV3{
		appID:      appID,
		srcRank:    srcRank,
		recordSize: recordSize,
		capBytes:   packBytes,
		dictIdx:    make(map[kctKey]uint32),
	}
}

// Version reports the builder's wire format.
func (b *PackBuilderV3) Version() int { return PackV3 }

// CapBytes returns the maximum encoded pack size.
func (b *PackBuilderV3) CapBytes() int { return b.capBytes }

// RecordSize returns the logical per-record size in bytes.
func (b *PackBuilderV3) RecordSize() int { return b.recordSize }

// Count returns the number of events in the pack under construction.
func (b *PackBuilderV3) Count() int { return b.count }

// Len returns the current encoded size of the pack under construction.
func (b *PackBuilderV3) Len() int { return b.encodedLen() }

// LogicalLen returns the v1-equivalent size of the pack under
// construction: the fixed-record volume the same events would occupy.
func (b *PackBuilderV3) LogicalLen() int {
	return PackHeaderSize + b.count*b.recordSize
}

// DictLen returns the stream dictionary size including pending entries
// (diagnostics and tests).
func (b *PackBuilderV3) DictLen() int { return len(b.dict) }

func (b *PackBuilderV3) encodedLen() int {
	n := PackHeaderSize +
		uvarintLen(uint64(b.base)) +
		uvarintLen(uint64(len(b.dict)-b.base)) +
		b.dictBytes
	for i := range b.cols {
		n += uvarintLen(uint64(len(b.cols[i]))) + len(b.cols[i])
	}
	return n
}

// resetState clears per-pack accumulation and rolls back any unshipped
// dictionary delta.
func (b *PackBuilderV3) resetState() {
	b.count = 0
	for _, k := range b.dict[b.base:] {
		delete(b.dictIdx, k)
	}
	b.dict = b.dict[:b.base]
	b.dictBytes = 0
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.prevRank, b.prevPeer, b.prevTag = 0, 0, 0
	b.prevSize, b.prevTStart, b.prevDur = 0, 0, 0
}

// Reset discards any pack under construction (the stream dictionary
// keeps only entries already shipped) and adopts buf as output storage
// when large enough, mirroring the v1 builder.
func (b *PackBuilderV3) Reset(buf []byte) {
	b.resetState()
	if cap(buf) >= b.capBytes {
		b.out = buf[:0]
	}
}

// Add appends an event and reports whether the pack is now full.
func (b *PackBuilderV3) Add(e *Event) bool {
	key := kctKey{kind: e.Kind, comm: e.Comm, ctx: e.Ctx}
	idx, ok := b.dictIdx[key]
	if !ok {
		idx = uint32(len(b.dict))
		b.dict = append(b.dict, key)
		b.dictIdx[key] = idx
		b.dictBytes += 1 + uvarintLen(uint64(e.Comm)) + uvarintLen(uint64(e.Ctx))
	}
	b.cols[0] = binary.AppendUvarint(b.cols[0], uint64(idx))

	b.cols[1] = binary.AppendUvarint(b.cols[1], zigzag(int64(e.Rank)-b.prevRank))
	b.prevRank = int64(e.Rank)
	b.cols[2] = binary.AppendUvarint(b.cols[2], zigzag(int64(e.Peer)-b.prevPeer))
	b.prevPeer = int64(e.Peer)
	b.cols[3] = binary.AppendUvarint(b.cols[3], zigzag(int64(e.Tag)-b.prevTag))
	b.prevTag = int64(e.Tag)
	b.cols[4] = binary.AppendUvarint(b.cols[4], zigzag(e.Size-b.prevSize))
	b.prevSize = e.Size
	b.cols[5] = binary.AppendUvarint(b.cols[5], zigzag(e.TStart-b.prevTStart))
	b.prevTStart = e.TStart
	dur := e.TEnd - e.TStart
	b.cols[6] = binary.AppendUvarint(b.cols[6], zigzag(dur-b.prevDur))
	b.prevDur = dur

	b.count++
	return PackHeaderSize+(b.count+1)*b.recordSize > b.capBytes ||
		b.encodedLen()+worstPerEventV3 > b.capBytes
}

// Take finalizes the pack and returns its encoded bytes (nil if empty),
// committing this pack's dictionary delta as shipped: subsequent packs
// reference those entries by index alone.
func (b *PackBuilderV3) Take() []byte {
	if b.count == 0 {
		return nil
	}
	n := b.encodedLen()
	out := b.out
	if cap(out) < n {
		out = make([]byte, 0, b.capBytes)
	}
	out = out[:PackHeaderSize]
	binary.LittleEndian.PutUint32(out[0:], packMagicV3)
	binary.LittleEndian.PutUint32(out[4:], b.appID)
	binary.LittleEndian.PutUint32(out[8:], uint32(b.srcRank))
	binary.LittleEndian.PutUint32(out[12:], uint32(b.count))
	binary.LittleEndian.PutUint32(out[16:], uint32(b.recordSize))
	binary.LittleEndian.PutUint32(out[20:], uint32(n-PackHeaderSize))
	out = binary.AppendUvarint(out, uint64(b.base))
	out = binary.AppendUvarint(out, uint64(len(b.dict)-b.base))
	for _, k := range b.dict[b.base:] {
		out = append(out, byte(k.kind))
		out = binary.AppendUvarint(out, uint64(k.comm))
		out = binary.AppendUvarint(out, uint64(k.ctx))
	}
	for i := range b.cols {
		out = binary.AppendUvarint(out, uint64(len(b.cols[i])))
		out = append(out, b.cols[i]...)
	}
	b.base = len(b.dict)
	b.out = nil
	b.resetState()
	return out
}

// StreamDecoder decodes one writer's v3 pack sequence, carrying the
// persistent dictionary across packs. Packs must be fed in the writer's
// emission order (per-writer stream delivery order); a pack whose
// dictionary base disagrees with the accumulated state fails loudly
// instead of mis-attributing events. The decoder also accepts v1 packs
// (they carry no cross-pack state), so one per-writer decoder serves a
// stream whose format switches mid-run.
//
// Like PackReader, iteration is zero-copy and allocation-free in steady
// state, and a decoder is single-goroutine.
type StreamDecoder struct {
	h   Header
	buf []byte
	ev  Event
	err error

	// v1 cursor.
	off int

	// dict is the persistent v3 stream dictionary.
	dict []kctKey

	colPos, colEnd                [numColumns]int
	i                             int
	prevRank, prevPeer, prevTag   int64
	prevSize, prevTStart, prevDur int64
}

// ResetStream discards the accumulated dictionary, as if no pack had
// been decoded yet.
func (d *StreamDecoder) ResetStream() {
	d.dict = d.dict[:0]
	d.err = nil
	d.i = 0
	d.h = Header{}
}

// DictLen returns the accumulated stream dictionary size.
func (d *StreamDecoder) DictLen() int { return len(d.dict) }

// Init prepares the decoder for the writer's next pack. The buffer is
// borrowed, not copied: it must stay immutable until iteration finishes.
func (d *StreamDecoder) Init(buf []byte) error {
	h, err := PeekHeader(buf)
	if err != nil {
		d.err = err
		d.h = Header{}
		d.i = 0
		d.off = 0
		d.buf = nil
		return err
	}
	d.h = h
	d.buf = buf
	d.err = nil
	d.i = 0
	d.off = PackHeaderSize
	switch h.Version {
	case PackV1:
		return nil
	case PackV3:
		return d.initColumns()
	}
	return d.fail(fmt.Errorf("trace: stream decoder cannot decode pack version %d", h.Version))
}

// initColumns parses the dictionary delta, extending the persistent
// dictionary, and the column extents.
func (d *StreamDecoder) initColumns() error {
	h := d.h
	buf := d.buf
	d.prevRank, d.prevPeer, d.prevTag = 0, 0, 0
	d.prevSize, d.prevTStart, d.prevDur = 0, 0, 0
	body := PackHeaderSize + h.bodyLen
	pos := PackHeaderSize
	base, n := binary.Uvarint(buf[pos:body])
	if n <= 0 {
		return d.fail(fmt.Errorf("trace: v3 pack dictionary base invalid"))
	}
	pos += n
	adds, n := binary.Uvarint(buf[pos:body])
	if n <= 0 || adds > uint64(h.Count) {
		return d.fail(fmt.Errorf("trace: v3 pack dictionary delta length invalid"))
	}
	pos += n
	if base == 0 {
		// Stream-dictionary restart: the writer started a fresh
		// builder (format switch, new stream under an old decoder).
		d.dict = d.dict[:0]
	} else if int(base) != len(d.dict) {
		return d.fail(fmt.Errorf("trace: v3 pack dictionary gap: pack base %d, stream has %d entries (lost or reordered pack)", base, len(d.dict)))
	}
	if base+adds > maxStreamDict {
		return d.fail(fmt.Errorf("trace: v3 stream dictionary would exceed %d entries", maxStreamDict))
	}
	first := len(d.dict)
	need := first + int(adds)
	dict := d.dict
	if cap(dict) < need {
		nd := make([]kctKey, first, need)
		copy(nd, dict[:first])
		dict = nd
	}
	dict = dict[:need]
	for i := first; i < need; i++ {
		if pos >= body {
			d.dict = dict[:first]
			return d.fail(fmt.Errorf("trace: pack dictionary truncated"))
		}
		kind := Kind(buf[pos])
		pos++
		comm, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || comm > 1<<32-1 {
			d.dict = dict[:first]
			return d.fail(fmt.Errorf("trace: pack dictionary comm invalid"))
		}
		pos += n
		ctx, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || ctx > 1<<32-1 {
			d.dict = dict[:first]
			return d.fail(fmt.Errorf("trace: pack dictionary ctx invalid"))
		}
		pos += n
		dict[i] = kctKey{kind: kind, comm: uint32(comm), ctx: uint32(ctx)}
	}
	d.dict = dict
	for c := 0; c < numColumns; c++ {
		colBytes, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || colBytes > uint64(body-pos-n) {
			return d.fail(fmt.Errorf("trace: pack column %d extent invalid", c))
		}
		pos += n
		d.colPos[c] = pos
		pos += int(colBytes)
		d.colEnd[c] = pos
	}
	if pos != body {
		return d.fail(fmt.Errorf("trace: pack has %d trailing body bytes", body-pos))
	}
	return nil
}

func (d *StreamDecoder) fail(err error) error {
	d.err = err
	d.i = d.h.Count
	return err
}

// Header returns the header of the pack under iteration.
func (d *StreamDecoder) Header() Header { return d.h }

// Err returns the first decode error for the current pack.
func (d *StreamDecoder) Err() error { return d.err }

// Event returns the event decoded by the last successful Next; valid
// until the next Next or Init.
func (d *StreamDecoder) Event() *Event { return &d.ev }

// Next decodes the next event in place, reporting false at the end of
// the pack or on a malformed record (check Err to distinguish).
func (d *StreamDecoder) Next() bool {
	if d.err != nil || d.i >= d.h.Count {
		return false
	}
	if d.h.Version == PackV1 {
		decodeRecord(d.buf[d.off:], &d.ev)
		d.off += d.h.RecordSize
		d.i++
		return true
	}
	idx, ok := d.col(0)
	if !ok {
		return false
	}
	if idx >= uint64(len(d.dict)) {
		d.fail(fmt.Errorf("trace: pack dictionary index %d out of range", idx))
		return false
	}
	key := d.dict[idx]
	dRank, ok1 := d.col(1)
	dPeer, ok2 := d.col(2)
	dTag, ok3 := d.col(3)
	dSize, ok4 := d.col(4)
	dTS, ok5 := d.col(5)
	dDur, ok6 := d.col(6)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return false
	}
	d.prevRank += unzigzag(dRank)
	d.prevPeer += unzigzag(dPeer)
	d.prevTag += unzigzag(dTag)
	d.prevSize += unzigzag(dSize)
	d.prevTStart += unzigzag(dTS)
	d.prevDur += unzigzag(dDur)
	d.ev = Event{
		Kind:   key.kind,
		Comm:   key.comm,
		Ctx:    key.ctx,
		Rank:   int32(d.prevRank),
		Peer:   int32(d.prevPeer),
		Tag:    int32(d.prevTag),
		Size:   d.prevSize,
		TStart: d.prevTStart,
		TEnd:   d.prevTStart + d.prevDur,
	}
	d.i++
	return true
}

// col reads one uvarint from column c, bounds-checked against the
// column's extent.
func (d *StreamDecoder) col(c int) (uint64, bool) {
	v, n := binary.Uvarint(d.buf[d.colPos[c]:d.colEnd[c]])
	if n <= 0 {
		d.fail(fmt.Errorf("trace: pack column %d truncated at event %d", c, d.i))
		return 0, false
	}
	d.colPos[c] += n
	return v, true
}

// DecodeDispatch is the fused decode path: it iterates the pack and
// invokes fn once per event without materializing records, intermediate
// slices, or per-event copies — the event pointer is the decoder's
// in-place scratch, valid only for the duration of the call. Returns the
// event count. This is what the analyzer's hot path runs: wire bytes in,
// profiler/topology fold calls out, zero allocations in between.
func (d *StreamDecoder) DecodeDispatch(buf []byte, fn func(*Event)) (int, error) {
	if err := d.Init(buf); err != nil {
		return 0, err
	}
	n := 0
	for d.Next() {
		fn(&d.ev)
		n++
	}
	return n, d.Err()
}
