package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// In-memory batch decoding (DESIGN.md §12). Ingest payloads arrive as
// complete binary streams already sitting in one frame buffer; running them
// through BinaryReader costs a 64 KiB bufio allocation plus a string
// allocation per tuple. The functions here decode straight from the payload
// slice instead: the whole batch materializes with three heap allocations —
// one string conversion covering every record's bytes, one flat field
// array, one tuple slice — independent of the tuple count, and one with a
// recycled RecordArena.

// DecodeBatch decodes one ingest payload — a complete binary stream,
// header included — whose header must name exactly schema's attributes.
// It is the one batch decoder of the wire servers (leaf TCP, leaf UDP and
// coordinator front-end). A header equal to the schema's canonical
// encoding is verified by a prefix compare; any other header is parsed by
// BinaryReader, whose job is the precise schema or garbage error (a
// non-canonical encoding of the right schema still decodes). The records
// then decode as DecodeBinaryRecords does — into ar's reused capacity when
// ar is non-nil — and more than maxTuples records is an error.
func DecodeBatch(payload []byte, schema *Schema, ar *RecordArena, maxTuples int) ([]Tuple, error) {
	rec := payload
	if bytes.HasPrefix(payload, schema.hdr) {
		rec = payload[len(schema.hdr):]
	} else {
		br, err := NewBinaryReader(bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		got, want := br.schema.names, schema.names
		if len(got) != len(want) {
			return nil, fmt.Errorf("batch schema has %d attributes, expected %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("batch schema attribute %d is %q, expected %q", i, got[i], want[i])
			}
		}
		rec = payload[br.ByteOffset():]
	}
	return decodeBinaryRecords(rec, len(schema.names), maxTuples, ar)
}

// BinaryHeader returns the encoded binary-format header for schema,
// exactly as BinaryWriter emits it. A server that compares an ingest
// payload's prefix against this (bytes.HasPrefix) has verified the batch
// schema without parsing: the encoding is canonical, so equal headers and
// equal schemas coincide.
func BinaryHeader(schema *Schema) []byte {
	dst := append([]byte(nil), binaryMagic...)
	dst = binary.AppendUvarint(dst, uint64(schema.Len()))
	for _, name := range schema.names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// maxBatchValueLen mirrors BinaryReader's per-value bound.
const maxBatchValueLen = 1 << 24

// RecordArena holds the reusable backing slices of one decoded batch: the
// flat field array and the tuple headers. An arena-backed decode reuses
// their capacity across batches, so a recycled arena's steady-state cost is
// a single allocation per batch — the record-region string conversion,
// which cannot be pooled because the decoded field strings alias it and
// escape into the estimators' key comparisons. The caller owns the arena
// and must not decode into it again while any tuple from the previous
// decode is still reachable.
type RecordArena struct {
	flat   []string
	tuples []Tuple
}

// Reset drops the arena's references into the last decoded batch without
// releasing the backing capacity, so a pooled arena does not pin the
// record strings of whatever batch it last carried.
func (ar *RecordArena) Reset() {
	clear(ar.flat)
	clear(ar.tuples)
	ar.flat = ar.flat[:0]
	ar.tuples = ar.tuples[:0]
}

// DecodeBinaryRecords decodes like the package-level function of the same
// name, but materializes the field and tuple slices in the arena's reused
// capacity. The returned tuples remain valid until the next decode into
// (or Reset of) this arena.
func (ar *RecordArena) DecodeBinaryRecords(data []byte, arity, maxTuples int) ([]Tuple, error) {
	return decodeBinaryRecords(data, arity, maxTuples, ar)
}

// DecodeBinaryRecords decodes the record region of a binary batch — the
// bytes following the header, e.g. payload[len(BinaryHeader(schema)):] —
// into tuples of the given arity. maxTuples bounds the batch; exceeding it
// is an error, not a truncation, matching the server's batch-size policy.
//
// Every field string points into a single string conversion of the record
// region, so the returned tuples are immutable, self-contained (they do
// not alias data), and cost O(1) allocations for the whole batch.
func DecodeBinaryRecords(data []byte, arity, maxTuples int) ([]Tuple, error) {
	return decodeBinaryRecords(data, arity, maxTuples, nil)
}

func decodeBinaryRecords(data []byte, arity, maxTuples int, ar *RecordArena) ([]Tuple, error) {
	if arity < 1 {
		return nil, fmt.Errorf("stream: record decode needs arity >= 1")
	}
	// Pass 1: validate the uvarint/length structure and count records. No
	// bytes are copied; a malformed batch is rejected before any
	// allocation is sized from its contents.
	fields := 0
	off := 0
	for off < len(data) {
		n, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return nil, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): bad value length", off, fields/arity)
		}
		if n > maxBatchValueLen {
			return nil, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): value length %d exceeds limit", off, fields/arity, n)
		}
		if uint64(len(data)-off-w) < n {
			return nil, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): truncated value", off, fields/arity)
		}
		off += w + int(n)
		fields++
	}
	if fields%arity != 0 {
		return nil, fmt.Errorf("stream: binary batch ends mid-record (%d fields, arity %d)", fields, arity)
	}
	count := fields / arity
	if count > maxTuples {
		return nil, fmt.Errorf("stream: batch exceeds %d tuples", maxTuples)
	}
	if count == 0 {
		return nil, nil
	}
	// Pass 2: one conversion covers every record's bytes (the interleaved
	// length prefixes ride along — a few percent of slack for zero
	// compaction work); fields slice into it.
	rec := string(data)
	var flat []string
	var tuples []Tuple
	if ar != nil {
		if cap(ar.flat) >= fields {
			flat = ar.flat[:fields]
		} else {
			flat = make([]string, fields)
		}
		if cap(ar.tuples) >= count {
			tuples = ar.tuples[:count]
		} else {
			tuples = make([]Tuple, count)
		}
		ar.flat, ar.tuples = flat, tuples
	} else {
		flat = make([]string, fields)
		tuples = make([]Tuple, count)
	}
	off = 0
	for i := 0; i < fields; i++ {
		n, w := binary.Uvarint(data[off:])
		off += w
		flat[i] = rec[off : off+int(n)]
		off += int(n)
	}
	for i := range tuples {
		tuples[i] = Tuple(flat[i*arity : (i+1)*arity : (i+1)*arity])
	}
	return tuples, nil
}
