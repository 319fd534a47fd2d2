package obs

import (
	"fmt"

	"implicate/internal/imps"
	"implicate/internal/wire"
)

// The Health and Trace RPC payload encodings. Like the telemetry snapshot
// (and unlike ingest batches), they have magics of their own: the frame
// layer authenticates bytes, the payload codec proves structure. A span
// record is 61 bytes, the causal identity (trace id, parent span id, own
// span id) always present — zero on spans recorded outside any trace.
const (
	spansMagic  = "IMPS\x03"
	healthMagic = "IMPH\x01"
)

// spanRecordSize is the encoded size of one span record.
const spanRecordSize = 61

// maxDumpSpans bounds a decoded span dump; a frame claiming more is corrupt
// (no tracer ships rings anywhere near this deep).
const maxDumpSpans = 1 << 20

// maxHealthReports bounds a decoded health dump — one report per registered
// statement, so anything huge is corruption, not scale.
const maxHealthReports = 1 << 16

// EncodeSpans serializes a span dump for the Trace RPC.
func EncodeSpans(spans []Span) []byte {
	e := wire.NewEncoder(16 + len(spans)*spanRecordSize)
	e.Raw([]byte(spansMagic))
	e.U32(uint32(len(spans)))
	for i := range spans {
		encodeSpan(e, &spans[i])
	}
	return e.Bytes()
}

// encodeSpan writes one span record — the single-node dump's record and
// the body of a fleet trace's.
func encodeSpan(e *wire.Encoder, s *Span) {
	e.U64(s.Seq)
	e.U8(uint8(s.Kind))
	e.U32(uint32(s.Arg))
	e.I64(s.Start)
	e.I64(s.Dur)
	e.I64(s.Units)
	e.U64(s.Trace)
	e.U64(s.Parent)
	e.U64(s.ID)
}

// decodeSpanInto reads one span record, validating the kind.
func decodeSpanInto(d *wire.Decoder, s *Span) {
	s.Seq = d.U64()
	s.Kind = SpanKind(d.U8())
	s.Arg = int32(d.U32())
	s.Start = d.I64()
	s.Dur = d.I64()
	s.Units = d.I64()
	s.Trace = d.U64()
	s.Parent = d.U64()
	s.ID = d.U64()
	if s.Kind >= numSpanKinds {
		d.Failf("unknown span kind %d", s.Kind)
	}
}

// DecodeSpans parses a span dump, rejecting structurally implausible
// input.
func DecodeSpans(data []byte) ([]Span, error) {
	d := wire.NewDecoder(data)
	d.Magic(spansMagic)
	n := d.Count(spanRecordSize)
	if d.Err() == nil && n > maxDumpSpans {
		return nil, fmt.Errorf("%w: span dump claims %d spans", wire.ErrCorrupt, n)
	}
	var spans []Span
	if d.Err() == nil && n > 0 {
		spans = make([]Span, n)
		for i := 0; i < n; i++ {
			decodeSpanInto(d, &spans[i])
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return spans, nil
}

// EncodeHealth serializes the engine's health reports for the Health RPC.
func EncodeHealth(reports []imps.HealthReport) []byte {
	e := wire.NewEncoder(16 + len(reports)*128)
	e.Raw([]byte(healthMagic))
	e.U32(uint32(len(reports)))
	for i := range reports {
		h := &reports[i]
		e.U32(uint32(h.Stmt))
		e.Str(h.Kind)
		e.Str(h.Query)
		e.Bool(h.Shared)
		e.I64(h.Tuples)
		e.I64(int64(h.MemEntries))
		e.I64(h.MemBytes)
		e.F64(h.BitmapFill)
		e.F64(h.LeftmostZero)
		e.I64(int64(h.FringeTracked))
		e.I64(int64(h.FringePairs))
		e.I64(int64(h.FringeTombstones))
		e.I64(h.FringeEvictions)
		e.I64(int64(h.FringeWidth))
		e.F64(h.RelErr)
	}
	return e.Bytes()
}

// DecodeHealth parses a health dump, rejecting structurally implausible
// input. Non-finite RelErr values are legitimate (an empty estimator
// reports +Inf — it cannot bound its error), so floats are not validated
// beyond their encoding.
func DecodeHealth(data []byte) ([]imps.HealthReport, error) {
	d := wire.NewDecoder(data)
	d.Magic(healthMagic)
	n := d.Count(64)
	if d.Err() == nil && n > maxHealthReports {
		return nil, fmt.Errorf("%w: health dump claims %d reports", wire.ErrCorrupt, n)
	}
	var reports []imps.HealthReport
	if d.Err() == nil && n > 0 {
		reports = make([]imps.HealthReport, n)
		for i := 0; i < n; i++ {
			h := &reports[i]
			h.Stmt = int(d.U32())
			h.Kind = d.Str(256)
			h.Query = d.Str(1 << 16)
			h.Shared = d.Bool()
			h.Tuples = d.I64()
			h.MemEntries = int(d.I64())
			h.MemBytes = d.I64()
			h.BitmapFill = d.F64()
			h.LeftmostZero = d.F64()
			h.FringeTracked = int(d.I64())
			h.FringePairs = int(d.I64())
			h.FringeTombstones = int(d.I64())
			h.FringeEvictions = d.I64()
			h.FringeWidth = int(d.I64())
			h.RelErr = d.F64()
			if h.Tuples < 0 || h.MemEntries < 0 || h.MemBytes < 0 {
				d.Failf("negative health counter in report %d", i)
			}
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return reports, nil
}
