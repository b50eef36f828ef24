package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run: a client operation
// (parent 0) or a replayed layer call whose parent is the operation
// whose input it replays. Times are nanoseconds on the run's monotonic
// clock (virtual time for the simulator).
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// epoch is the zero of the span clock.
var epoch = time.Now()

// clock is the span clock: monotonic ns since the process started.
func clock() int64 { return int64(time.Since(epoch)) }

// writeSpans writes the recorded spans as JSON lines under the checkout's
// build directory, one file per workload and seed.
func writeSpans(o *options, spans []span) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(o.work)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMedians returns each span name's median self time in ns. Replayed
// layer calls have no children, so their self time is their duration.
func spanMedians(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.name] = append(by[s.name], float64(s.dur()))
	}
	out := map[string]float64{}
	for n, ds := range by {
		out[n] = median(ds)
	}
	return out
}

// spanQuantile returns the q-quantile of the named spans' durations in ns.
func spanQuantile(spans []span, name string, q float64) float64 {
	var ds []float64
	for _, s := range spans {
		if s.name == name {
			ds = append(ds, float64(s.dur()))
		}
	}
	sort.Float64s(ds)
	return percentile(ds, q)
}

// overheadPct is how much worse the traced figure is than the untraced
// one, in percent of the untraced figure.
func overheadPct(traced, untraced float64, higherBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherBetter {
		return (untraced - traced) / untraced * 100
	}
	return (traced - untraced) / untraced * 100
}

// zeroMissing reports every per-layer metric the workload did not
// measure as 0: the layer is bypassed on this workload.
func zeroMissing(out *outcome) {
	for _, d := range perLayer {
		if _, ok := out.values[d.name]; !ok {
			out.values[d.name] = 0
		}
	}
}

// mix derives a well-spread 64-bit value from a seed and an index
// (splitmix64 finalizer).
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
