package obs

import (
	"fmt"
	"sort"

	"implicate/internal/wire"
)

// The fleet trace: the coordinator's answer to the Trace RPC. Where a leaf
// serves its own span ring, the coordinator fans the RPC out, collects
// every leaf's ring next to its own, and assembles one causally-ordered
// trace — each span labeled with the node it was recorded on, children
// sorted under their parents by the cross-node links the traced frames
// carried.
const fleetMagic = "IMPF\x01"

// maxNodeNameLen bounds a node label on the wire.
const maxNodeNameLen = 256

// FleetSpan is one span of an assembled fleet trace: the node that
// recorded it plus the span itself.
type FleetSpan struct {
	// Node names the recording process: "coord" for the coordinator's own
	// spans, the leaf's configured name otherwise.
	Node string
	Span
}

// EncodeFleetTrace serializes an assembled fleet trace.
func EncodeFleetTrace(spans []FleetSpan) []byte {
	e := wire.NewEncoder(16 + len(spans)*80)
	e.Raw([]byte(fleetMagic))
	e.U32(uint32(len(spans)))
	for i := range spans {
		e.Str(spans[i].Node)
		encodeSpan(e, &spans[i].Span)
	}
	return e.Bytes()
}

// DecodeFleetTrace parses a fleet trace, rejecting structurally
// implausible input.
func DecodeFleetTrace(data []byte) ([]FleetSpan, error) {
	d := wire.NewDecoder(data)
	d.Magic(fleetMagic)
	n := d.Count(4 + spanRecordSize) // min record: 4-byte name prefix + span
	if d.Err() == nil && n > maxDumpSpans {
		return nil, fmt.Errorf("%w: fleet trace claims %d spans", wire.ErrCorrupt, n)
	}
	var spans []FleetSpan
	if d.Err() == nil && n > 0 {
		spans = make([]FleetSpan, n)
		for i := 0; i < n; i++ {
			spans[i].Node = d.Str(maxNodeNameLen)
			decodeSpanInto(d, &spans[i].Span)
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return spans, nil
}

// IsFleetTrace reports whether a Trace RPC payload is a fleet trace (as
// opposed to a single node's span dump): clients use it to pick a decoder
// without knowing what kind of server answered.
func IsFleetTrace(data []byte) bool {
	return len(data) >= len(fleetMagic) && string(data[:len(fleetMagic)]) == fleetMagic
}

// OrderFleetTrace sorts an assembled trace causally: root spans (no parent
// in the set) by start time, each span's children directly after it,
// recursively, children by start time. Spans reachable from no root (their
// parent span was lapped out of its ring) surface as roots rather than
// disappear — a trace viewer should see the orphaned work. The input is
// not modified; the ordered trace is returned.
func OrderFleetTrace(spans []FleetSpan) []FleetSpan {
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		if id := spans[i].ID; id != 0 {
			byID[id] = i
		}
	}
	children := make(map[int][]int)
	var roots []int
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			if pi, ok := byID[p]; ok && pi != i {
				children[pi] = append(children[pi], i)
				continue
			}
		}
		roots = append(roots, i)
	}
	byStart := func(ix []int) {
		sort.SliceStable(ix, func(a, b int) bool {
			sa, sb := &spans[ix[a]], &spans[ix[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.Seq < sb.Seq
		})
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}
	out := make([]FleetSpan, 0, len(spans))
	// Iterative preorder DFS; the visited guard makes a corrupt parent
	// cycle terminate instead of recursing forever.
	visited := make([]bool, len(spans))
	stack := make([]int, 0, len(spans))
	for r := len(roots) - 1; r >= 0; r-- {
		stack = append(stack, roots[r])
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[i] {
			continue
		}
		visited[i] = true
		out = append(out, spans[i])
		kids := children[i]
		for k := len(kids) - 1; k >= 0; k-- {
			stack = append(stack, kids[k])
		}
	}
	// A corrupt parent cycle is reachable from no root and the DFS never
	// enters it; surface those spans at the end rather than drop them.
	for i := range spans {
		if !visited[i] {
			out = append(out, spans[i])
		}
	}
	return out
}
