package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Batch  int           `json:"batch"`  // -1 when the span covers no single batch
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing and reads no
// clock, so the untraced replay runs the same code without its cost.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // open spans; the top is the parent of the next begin
	batch int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), batch: -1} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Batch: t.batch, Name: name, Start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// setBatch tags the spans begun from now on with batch id b (-1: none).
func (t *tracer) setBatch(b int) {
	if t != nil {
		t.batch = b
	}
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Children are nested inside their parent and do not
// overlap one another (the replay is serial), so the self times of all
// spans sum to the total duration of the roots.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// stage is one row of the stage table: every span of one label.
type stage struct {
	Name  string
	Count int
	Self  time.Duration // summed self time
}

// stageTable groups self times by label (labels[i] names spans[i]),
// largest first.
func stageTable(spans []span, labels []string) []stage {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []stage
	for i := range spans {
		j, ok := idx[labels[i]]
		if !ok {
			j = len(rows)
			idx[labels[i]] = j
			rows = append(rows, stage{Name: labels[i]})
		}
		rows[j].Count++
		rows[j].Self += self[i]
	}
	slices.SortFunc(rows, func(a, b stage) int { return int(b.Self - a.Self) })
	return rows
}

// phaseLabels names each span by its phase (the root's child it lies
// under) and its own name, e.g. "leaf/stream.decode"; the root and the
// phases keep their bare names.
func phaseLabels(spans []span) []string {
	labels := make([]string, len(spans))
	phase := make([]int, len(spans)) // index of the phase span, -1 above it
	for i, s := range spans {
		switch {
		case s.Parent < 0:
			phase[i] = -1
		case spans[s.Parent].Parent < 0:
			phase[i] = i
		default:
			phase[i] = phase[s.Parent]
		}
		if phase[i] < 0 || phase[i] == i {
			labels[i] = s.Name
		} else {
			labels[i] = spans[phase[i]].Name + "/" + s.Name
		}
	}
	return labels
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	return total, n
}

// perCall is the mean duration of the spans named name, in unit; 0 when
// there are none.
func perCall(spans []span, name string, unit time.Duration) float64 {
	total, n := sumDur(spans, name)
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}

// printStages writes the stage table. path names the stages the workload's
// system runs on its serving path; the rest measure layers off that path
// on the same batches. Shares are of the replay's wall time, which the
// self times sum to.
func printStages(w io.Writer, rows []stage, wall time.Duration, path map[string]bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tpath\tspans\tself ms\tshare\tself us/span")
	var sum time.Duration
	for _, r := range rows {
		mark := ""
		if path[r.Name] {
			mark = "*"
		}
		sum += r.Self
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.1f%%\t%.2f\n", r.Name, mark, r.Count,
			float64(r.Self)/1e6, 100*float64(r.Self)/float64(wall), float64(r.Self)/1e3/float64(r.Count))
	}
	fmt.Fprintf(tw, "sum of self times\t\t\t%.2f\t%.1f%%\t\n", float64(sum)/1e6, 100*float64(sum)/float64(wall))
	tw.Flush()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
