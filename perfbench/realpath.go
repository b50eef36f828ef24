package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"redplane/internal/wire"
)

// realWorkload shapes one real-path workload.
type realWorkload struct {
	name    string
	stores  int  // chain length
	durable bool // WAL-backed stores
	flows   int  // long-lived flows (0 = connection churn)
	batch   int  // writes per datagram
	window  int  // unacknowledged writes per flow
	opens   int  // concurrent connection opens (churn only)
	// spareCPUs gives the stores only the CPUs the generator leaves
	// free: each runs its share of them as Go threads, at least one, and
	// one shard per thread; when every store can have a spare CPU of its
	// own, the stores are also pinned to the spare CPUs. Otherwise a
	// store runs a thread and a shard on every CPU. A two-thread store
	// beside the generator on two CPUs was time-sliced against it, and
	// its p99 switched between 4 and 6 ms from one stretch of minutes
	// to the next. With two shards on its one thread, the seed decided
	// how the 64 flows split between them (26:38 to 32:32), and the
	// worst split cost a fifth of the goodput and doubled the p99.
	// Unpinned, the kernel moved the one store thread onto the
	// generator's CPU for a second at a time, and the p99's quartile
	// spread over five seeds was a quarter of its median; pinned, about
	// a tenth over ten. flow-churn's store needs every CPU for the garbage
	// collector over its large table, and with one thread its open rate
	// swung by a third between runs.
	spareCPUs bool
}

var (
	perpktVolatile = realWorkload{name: "perpkt-volatile", stores: 1, flows: 64, batch: 1, window: 4, spareCPUs: true}
	chainDurable   = realWorkload{name: "chain-durable", stores: 3, durable: true, flows: 64, batch: 16, window: 32, spareCPUs: true}
	flowChurn      = realWorkload{name: "flow-churn", stores: 1, opens: 256}
)

func (w realWorkload) churn() bool { return w.flows == 0 }

// storeProcs is the GOMAXPROCS each store process runs with; 0 leaves
// the Go runtime's default, one thread per CPU.
func (w realWorkload) storeProcs() int {
	if !w.spareCPUs {
		return 0
	}
	return max(len(spareCPUs())/w.stores, 1)
}

// storeCPUs are the CPUs the stores are pinned to; nil leaves them
// unpinned. chain-durable's three stores stay unpinned on a two-CPU
// host: all three pinned to its one spare CPU, the quartile spreads of
// goodput and p50 over five seeds rose from about 0.11 to 0.17-0.19.
func (w realWorkload) storeCPUs() []int {
	spare := spareCPUs()
	if !w.spareCPUs || len(spare) < w.stores {
		return nil
	}
	return spare
}

// Phase lengths. The set-up is repeated and its median reported.
const (
	setups       = 5
	warmup       = time.Second
	drainTimeout = 5 * time.Second
	verifySample = 4096    // churn opens read back after the run
	churnPrefill = 250_000 // flows in the store's table before flow-churn measures
	// measureWindow is the length of one measurement window. This host's
	// CPU speed wanders by ±20% from one second to the next; the median of
	// many short windows holds still where one long average does not.
	measureWindow = 500 * time.Millisecond
	probeFlow     = 0xFFFFFF00 // flow indices of the set-up probes, past every workload flow
)

// runReal launches the real processes, drives the workload, checks the
// stored state, and (traced) replays the workload through each layer.
func runReal(o *options, w realWorkload) (*outcome, error) {
	out := newOutcome()
	nSetups, warm := setups, warmup
	if o.smoke {
		nSetups, warm = 1, 200*time.Millisecond
	}

	// Set-up: launch to the first acknowledged write, several times.
	var c *cluster
	var setupS, linkMS []float64
	for i := 0; i < nSetups; i++ {
		if c != nil {
			c.stop()
		}
		dir := filepath.Join(o.work, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		var link time.Duration
		var err error
		c, link, err = launch(o, w, dir)
		if err != nil {
			return nil, err
		}
		if err := firstWrite(c, o.seed, probeFlow+int64(i)); err != nil {
			c.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		linkMS = append(linkMS, float64(link)/1e6)
	}
	defer c.stop()
	view0, err := c.viewNum()
	if err != nil {
		return nil, err
	}
	out.set("setup_s", median(setupS))
	out.set("ctl.link_ms", median(linkMS))

	// Load, from the generator's CPUs: one socket per CPU. The processes
	// are already running, so they keep every CPU.
	gen := genCPUs()
	if err := pinSelf(gen); err != nil {
		return nil, err
	}
	defer pinSelf(allCPUs())
	sockets := len(gen)
	g, err := newGen(c.head, sockets, func(i int) handler {
		if w.churn() {
			return newChurn(o.seed, int64(i), int64(sockets), w.opens/sockets)
		}
		var idxs []int64
		for f := i; f < w.flows; f += sockets {
			idxs = append(idxs, int64(f))
		}
		return newSteady(o.seed, idxs, w.batch, w.window)
	})
	if err != nil {
		return nil, err
	}
	defer g.close()
	g.run()
	var churnRSS float64
	if w.churn() {
		// Fill the table to churnPrefill flows first: every run then
		// measures opens into a table of the same size, and reads the
		// stores' memory at that size. A figure read at the end would
		// depend on how many opens the run managed, and on where the
		// store's garbage collector stood at that count.
		prefill := int64(churnPrefill)
		if o.smoke {
			prefill = 2000
		}
		if err := waitFor(2*time.Minute, func() bool { return totalAcked(g) >= prefill }); err != nil {
			return nil, fmt.Errorf("%s: the table never reached %d flows: %v", w.name, prefill, err)
		}
		churnRSS = c.storesPeakRSSMB()
	} else {
		time.Sleep(warm)
	}

	before, err := c.metrics()
	if err != nil {
		return nil, err
	}
	userB, sysB := c.storesCPU()
	genB := selfCPU()
	ackedB := totalAcked(g)
	measure := time.Duration(o.seconds * float64(time.Second))
	if o.smoke {
		measure = 300 * time.Millisecond
	}
	// The measurement is cut into windows; the latency figures are medians
	// over them, so a burst of outside load on the host moves one window,
	// not the result. A traced run alternates untraced and traced windows,
	// so both see the same host and, on flow-churn, the same table sizes;
	// their difference is the tracing overhead.
	nWin := max(int(measure/measureWindow), 1)
	if o.trace {
		nWin = max(nWin, 2)
	}
	phaseOf := func(i int) int32 {
		if o.trace && i%2 == 1 {
			return phaseTraced
		}
		return phaseMeasure
	}
	type mark struct {
		at   time.Time
		lens []int // per socket, latency samples so far
	}
	snap := func() mark {
		mk := mark{at: time.Now()}
		g.each(func(s *gsock) { mk.lens = append(mk.lens, len(s.lat)) })
		return mk
	}
	// In a traced run the shard queues are sampled throughout.
	var queueHigh float64
	stopPoll := make(chan struct{})
	polled := make(chan struct{})
	if !o.trace {
		close(polled)
	} else {
		go pollQueues(c, &queueHigh, stopPoll, polled)
	}
	g.phase.Store(phaseOf(0))
	marks := []mark{snap()}
	var window, tracedTime time.Duration // untraced and traced time measured
	for i := 1; i <= nWin; i++ {
		time.Sleep(time.Until(marks[0].at.Add(measure * time.Duration(i) / time.Duration(nWin))))
		if i < nWin {
			g.phase.Store(phaseOf(i))
		}
		marks = append(marks, snap())
		if phaseOf(i-1) == phaseTraced {
			tracedTime += marks[i].at.Sub(marks[i-1].at)
		} else {
			window += marks[i].at.Sub(marks[i-1].at)
		}
	}
	g.phase.Store(phaseDrain)
	close(stopPoll)
	<-polled
	userA, sysA := c.storesCPU()
	genA := selfCPU()
	ackedLoad := totalAcked(g) - ackedB

	// Drain: every started operation must complete.
	outstanding := func() int64 {
		var n int64
		g.each(func(s *gsock) {
			switch h := s.h.(type) {
			case *steady:
				n += h.outstanding()
			case *churn:
				n += h.outstanding()
			}
		})
		return n
	}
	if err := waitFor(drainTimeout, func() bool { return outstanding() == 0 }); err != nil {
		n := outstanding()
		out.failed += n
		out.checks = append(out.checks, fmt.Sprintf("%d operations unacknowledged %v after the load stopped", n, drainTimeout))
	}
	time.Sleep(3 * ctlProbe) // let the daemon's probes refresh the counters
	after, err := c.metrics()
	if err != nil {
		return nil, err
	}

	// Tallies and the end-to-end figures.
	var lat, tlat, wlat []float64
	var spans []span
	var measured, traced, issued, retrans, rejects int64
	table := 0 // flows the churn left in the store's table
	g.each(func(s *gsock) {
		if ch, ok := s.h.(*churn); ok {
			table += len(ch.done)
		}
		lat = append(lat, s.lat...)
		tlat = append(tlat, s.tlat...)
		wlat = append(wlat, s.wlat...)
		spans = append(spans, s.spans...)
		measured += s.measured
		traced += s.traced
		issued += s.issued
		retrans += s.retrans
		rejects += s.rejects
		for _, b := range s.bad {
			out.fail("%s", b)
		}
	})
	var p50s, p99s, rates []float64
	for i := 1; i <= nWin; i++ {
		if phaseOf(i-1) != phaseMeasure {
			continue
		}
		a, b := marks[i-1], marks[i]
		var wl []float64
		k := 0
		g.each(func(s *gsock) {
			wl = append(wl, s.lat[a.lens[k]:b.lens[k]]...)
			k++
		})
		sort.Float64s(wl)
		p50s = append(p50s, percentile(wl, 0.5))
		p99s = append(p99s, percentile(wl, 0.99))
		rates = append(rates, float64(len(wl))/b.at.Sub(a.at).Seconds())
	}
	fmt.Fprintf(os.Stderr, "%s: quartiles over %d windows: goodput %s, p50 %s, p99 %s\n",
		w.name, len(p99s), quartiles(rates), quartiles(p50s), quartiles(p99s))
	sort.Float64s(lat)
	sort.Float64s(tlat)
	sort.Float64s(wlat)
	out.attempted += issued
	out.failed += rejects
	// Throughput is the whole untraced time's: the store's garbage
	// collector stalls some windows and not others, and a median over
	// windows moved with how many stalls a run happened to catch.
	goodput := float64(measured) / window.Seconds()
	out.set("goodput_wps", goodput)
	out.set("write_p50_us", median(p50s))
	out.set("write_p99_us", median(p99s))
	out.set("write_samples", float64(len(lat)))
	if w.churn() {
		out.set("flow_open_per_s", goodput)
		out.set("flow_open_p50_us", median(p50s))
		out.set("flow_open_p99_us", median(p99s))
		out.set("churn.write_leg_p50_us", percentile(wlat, 0.5))
	}
	fmt.Fprintf(os.Stderr, "%s: %d operations in %.2fs, latency from %d samples (p50 %.1fµs, p99 %.1fµs)\n",
		w.name, measured, window.Seconds(), len(lat), percentile(lat, 0.5), percentile(lat, 0.99))

	// Output checks.
	checkStored(o, w, g, out)
	if w.stores > 1 {
		checkDigests(c, w.stores, out)
	}
	view1, err := c.viewNum()
	if err != nil {
		return nil, err
	}
	if view1 != view0 {
		out.fail("healthy run changed the chain view %d -> %d", view0, view1)
	}
	out.set("ctl.view_changes", float64(view1-view0))
	if w.churn() {
		out.set("store_rss_mb", churnRSS)
	} else {
		out.set("store_rss_mb", c.storesPeakRSSMB())
	}

	// Per-layer figures from the store counters, /proc and the generator.
	writes := float64(max(ackedLoad, 1))
	delta := func(pred func(string) bool) float64 {
		return after.sum(pred) - before.sum(pred)
	}
	out.set("store.udp.rx_dgrams_per_batch", ratio(delta(is("redplane_udp_rx_dgrams")), delta(is("redplane_udp_rx_batches"))))
	out.set("store.udp.tx_dgrams_per_batch", ratio(delta(shard("tx_dgrams")), delta(shard("tx_batches"))))
	out.set("store.cpu_user_us_per_write", (userA-userB)/writes)
	out.set("store.cpu_sys_us_per_write", (sysA-sysB)/writes)
	out.set("store.udp.sheds", delta(shard("sheds")))
	out.set("store.udp.queue_depth_high", queueHigh)
	out.set("store.udp.shard_spread", shardSpread(before, after))
	out.set("durable.records_per_fsync", ratio(delta(walMetric("wal_records")), delta(walMetric("fsyncs"))))
	out.set("durable.wal_bytes_per_write", delta(walMetric("wal_bytes"))/writes)
	out.set("chain.relays_per_write", delta(shard("relays"))/writes)
	out.set("loadgen.cpu_us_per_write", (genA-genB)/writes)
	out.set("loadgen.retrans_per_write", float64(retrans)/float64(max(issued, 1)))

	if o.trace {
		// The traced windows against the untraced ones, each pooled.
		tgood := float64(traced) / tracedTime.Seconds()
		out.set("trace.overhead_p50_pct", overheadPct(percentile(tlat, 0.5), percentile(lat, 0.5), false))
		out.set("trace.overhead_goodput_pct", overheadPct(tgood, float64(measured)/window.Seconds(), true))
		// The replay runs alone, on every CPU: the ring handoff needs its
		// two goroutines on two cores.
		c.stop()
		g.close()
		if err := pinSelf(allCPUs()); err != nil {
			return nil, err
		}
		children, err := replayLayers(o, w, spans, out.values["durable.records_per_fsync"], table, out)
		if err != nil {
			return nil, err
		}
		if err := writeSpans(o, append(spans, children...)); err != nil {
			return nil, err
		}
		out.set("trace.spans", float64(len(spans)+len(children)))
		out.set("ladder.unattributed_us", percentile(tlat, 0.5)-ladderSum(w, out))
	}
	zeroMissing(out)
	return out, nil
}

// pollQueues samples the stores' shard queue depths at every daemon probe
// until stop closes, keeping the highest in *high; it closes done on exit.
func pollQueues(c *cluster, high *float64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-time.After(ctlProbe):
		}
		m, err := c.metrics()
		if err != nil {
			continue
		}
		for _, ms := range m {
			for n, v := range ms {
				if isShardMetric(n, "queue_depth") && v > *high {
					*high = v
				}
			}
		}
	}
}

// firstWrite leases a probe flow and writes it once, retrying until the
// write is acknowledged: the end of set-up.
func firstWrite(c *cluster, seed, idx int64) error {
	var done bool
	g, err := newGen(c.head, 1, func(int) handler {
		return &probe{steady: newSteady(seed, []int64{idx}, 1, 1), done: &done}
	})
	if err != nil {
		return err
	}
	defer g.close()
	g.run()
	var ok bool
	err = waitFor(10*time.Second, func() bool {
		g.each(func(*gsock) { ok = done })
		return ok
	})
	if err != nil {
		return fmt.Errorf("set-up: the first write to %v was never acknowledged: %v\n%s",
			c.head, err, c.stores[0].output())
	}
	return nil
}

// probe is a one-flow steady load that stops after its first write and
// retransmits on a short timer, so set-up time is not quantized by the
// generator's loss timeout.
type probe struct {
	*steady
	done *bool
}

func (p *probe) onMsg(s *gsock, m *wire.Message, now int64) {
	if *p.done {
		return
	}
	p.steady.onMsg(s, m, now)
	f := p.flows[0]
	if f.acked >= 1 {
		*p.done = true
		f.sent = f.acked // no further writes
	}
}

func (p *probe) tick(s *gsock, now int64) {
	if *p.done {
		return
	}
	f := p.flows[0]
	if !f.leased {
		s.sendLease(f.key)
	} else if f.sent > f.acked {
		s.sendWrites(f.key, f.sent, f.sent, f.val)
	}
}

// checkStored re-leases every long-lived flow (or a seeded sample of the
// churn's opens) and checks the store returns each one's last
// acknowledged write.
func checkStored(o *options, w realWorkload, g *gen, out *outcome) {
	items := make([][]vitem, len(g.socks))
	var done []int64
	for i, s := range g.socks {
		s.mu.Lock()
		switch h := s.h.(type) {
		case *churn:
			done = append(done, h.done...)
		case *steady:
			for _, f := range h.flows {
				if f.acked == f.sent && f.sent > 0 {
					items[i] = append(items[i], vitem{key: f.key, seq: f.acked, val: f.val(f.acked)})
				}
			}
		}
		s.mu.Unlock()
	}
	if w.churn() {
		sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
		rng := rand.New(rand.NewSource(o.seed))
		rng.Shuffle(len(done), func(i, j int) { done[i], done[j] = done[j], done[i] })
		if len(done) > verifySample {
			done = done[:verifySample]
		}
		for k, n := range done {
			items[k%len(items)] = append(items[k%len(items)],
				vitem{key: flowKey(o.seed, n), seq: 1, val: writeVal(o.seed, n, 1)})
		}
	}
	g.swap(func(i int) handler { return newVerify(items[i], 128) })
	finished := func() bool {
		all := true
		g.each(func(s *gsock) {
			if !s.h.(*verify).finished() {
				all = false
			}
		})
		return all
	}
	waitErr := waitFor(drainTimeout, finished)
	n := 0
	g.each(func(s *gsock) {
		v := s.h.(*verify)
		n += len(v.items)
		out.attempted += int64(len(v.items))
		for _, f := range v.fails {
			out.checks = append(out.checks, f)
		}
		out.failed += int64(v.bad + len(v.items) - v.ok - v.bad)
		if v.bad > 0 {
			out.checks = append(out.checks, fmt.Sprintf("%d flows lost their last acknowledged write", v.bad))
		}
	})
	if waitErr != nil {
		out.checks = append(out.checks, "read-back of the stored flows timed out")
	}
	if n == 0 {
		out.fail("no flow to read back")
	}
	fmt.Fprintf(os.Stderr, "%s: read back %d flows\n", w.name, n)
}

// checkDigests requires every chain member to report the same state
// digest (acknowledged writes have reached the tail, so it holds at once
// after the drain; a short wait covers the daemon's collection).
func checkDigests(c *cluster, n int, out *outcome) {
	var last map[string]string
	err := waitFor(3*time.Second, func() bool {
		d, err := c.digests()
		if err != nil || len(d) != n {
			return false
		}
		last = d
		for _, v := range d {
			if v != d["s0"] {
				return false
			}
		}
		return true
	})
	out.attempted++
	if err != nil {
		out.fail("replica digests disagree: %v", last)
	}
}

// Store metric selectors over the daemon's exposition names.
func is(name string) func(string) bool { return func(n string) bool { return n == name } }

func isShardMetric(n, suffix string) bool {
	return strings.HasPrefix(n, "redplane_udp_shard") && strings.HasSuffix(n, "_"+suffix)
}

func shard(suffix string) func(string) bool {
	return func(n string) bool { return isShardMetric(n, suffix) }
}

func walMetric(suffix string) func(string) bool {
	return func(n string) bool {
		return strings.HasPrefix(n, "redplane_store_shard") && strings.HasSuffix(n, "_"+suffix)
	}
}

// shardSpread is max over mean of per-shard datagrams processed during
// the load, over every store's shards.
func shardSpread(before, after storeMetrics) float64 {
	var ds []float64
	for member, ms := range after {
		for n, v := range ms {
			if isShardMetric(n, "dgrams") {
				ds = append(ds, v-before[member][n])
			}
		}
	}
	var sum, hi float64
	for _, d := range ds {
		sum += d
		hi = max(hi, d)
	}
	if sum == 0 {
		return 0
	}
	return hi * float64(len(ds)) / sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func totalAcked(g *gen) int64 {
	var n int64
	g.each(func(s *gsock) { n += s.acked })
	return n
}

// selfCPU is this process's user+system CPU time in µs.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}
