package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/core"
	"redplane/internal/failure"
	"redplane/internal/member"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/store"
)

// The sim-nat-failover scenario, in virtual time. New flows arrive as a
// Poisson process; each sends simPktsPerFlow packets simPktGap apart,
// so about simFlowRate*simPktsPerFlow*simPktGap flows are live at once.
// Packets are due on a fixed schedule whatever the deployment does (an
// open loop), so packets due during a stall wait for it and the stall
// shows in their latency.
const (
	simFlowRate    = 4000 // new flows per virtual second
	simPktsPerFlow = 25
	simPktGap      = 400 * time.Microsecond
	simTraffic     = 300 * time.Millisecond // virtual time with arrivals
	simQuiesce     = 150 * time.Millisecond // drains, rejoins, then checks
	simSwitchFail  = 90 * time.Millisecond  // aggregation switch 0 fail-stops
	simHeadCrash   = 180 * time.Millisecond // chain head cold-crashes, plus a seeded offset
	simHeadRecover = 260 * time.Millisecond
	simLease       = 30 * time.Millisecond
	simLeaseProbe  = time.Millisecond
)

var (
	simClientIP = packet.MakeAddr(10, 0, 0, 50)
	simSinkIP   = packet.MakeAddr(100, 0, 0, 9)
	simPublicIP = packet.MakeAddr(203, 0, 113, 1)
)

// natAcct is the NAT of internal/apps with per-flow packet accounting:
// state [count, extPort]. The translation comes from the store-side port
// pool at flow set-up; the count makes every packet a linearizable state
// write whose output exposes the count, so the deployment's counter
// history checker applies to NAT traffic.
type natAcct struct{ nat apps.NAT }

func (a *natAcct) Name() string                                  { return "nat-acct" }
func (a *natAcct) InstallVia() core.InstallPath                  { return a.nat.InstallVia() }
func (a *natAcct) Key(p *packet.Packet) (packet.FiveTuple, bool) { return a.nat.Key(p) }

func (a *natAcct) Process(p *packet.Packet, state []uint64) ([]*packet.Packet, []uint64) {
	if len(state) < 2 {
		return nil, nil
	}
	out, _ := a.nat.Process(p, state[1:])
	if len(out) == 0 {
		return nil, nil
	}
	return out, []uint64{state[0] + 1, state[1]}
}

// simRun is one simulated deployment's measurements.
type simRun struct {
	setup      time.Duration // build + warm-up to the first acked write
	loop       time.Duration // wall time stepping the rest of the run
	events     int64
	mallocs    uint64
	sent       int
	delivered  int
	lat        []float64 // µs, due time to delivery, virtual
	stall      time.Duration
	splice     time.Duration
	views      uint64
	replSends  uint64
	retrans    uint64
	bufHigh    int
	egressMsgs uint64 // protocol messages the switches coalesced into
	egressDgs  uint64 // this many batch datagrams to the store
	heapMB     float64
	spans      []span
	violations []string
}

func newSimDeployment(seed int64) *redplane.Deployment {
	nat := apps.NAT{InternalPrefix: packet.MakeAddr(10, 0, 0, 0),
		InternalMask: packet.MakeAddr(255, 0, 0, 0), PublicIP: simPublicIP}
	alloc := apps.NewNATAllocator(&apps.NAT{InternalPrefix: nat.InternalPrefix,
		InternalMask: nat.InternalMask, PublicIP: nat.PublicIP})
	proto := redplane.DefaultProtocolConfig()
	proto.LeasePeriod = simLease
	proto.RenewInterval = simLease / 2
	proto.LeaseGuard = simLease / 6
	proto.FlushWindow = 10 * time.Microsecond
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:   seed,
		NewApp: func(int) redplane.App { n := nat; return &natAcct{nat: n} },
		Mode:   redplane.Linearizable,
		InitState: func(key packet.FiveTuple) []uint64 {
			s := alloc.Init(key)
			if len(s) != 1 {
				return nil
			}
			return []uint64{0, s[0]}
		},
		Protocol:        proto,
		Replication:     redplane.ReplicationConfig{Engine: redplane.EngineChain, Replicas: 3},
		StoreDurability: store.DurabilityConfig{Enabled: true},
		StoreMembership: true,
		RecordHistory:   true,
		RecordJournal:   true,
	})
	d.RegisterServiceIP(simPublicIP)
	return d
}

// runSimOnce builds one deployment from seed, drives the scenario and
// checks it.
func runSimOnce(seed int64, traced bool) simRun {
	var r simRun
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	t0 := time.Now()
	d := newSimDeployment(seed)
	client := d.AddServer(0, "client", simClientIP)
	sink := d.AddClient(0, "sink", simSinkIP)

	// Flows and their packet schedule, all from the seed.
	rng := rand.New(rand.NewSource(seed))
	type simFlow struct {
		key        packet.FiveTuple
		start, end netsim.Time
	}
	var flows []simFlow
	var due []netsim.Time
	at := time.Duration(0)
	perm := rng.Perm(60000)
	for i := 0; ; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / simFlowRate)
		if at >= simTraffic {
			break
		}
		sport := uint16(1024 + perm[i%len(perm)])
		start := netsim.Duration(at)
		flows = append(flows, simFlow{
			key: packet.FiveTuple{Src: simClientIP, Dst: simSinkIP, SrcPort: sport,
				DstPort: 443, Proto: packet.ProtoUDP},
			start: start,
			end:   start + netsim.Duration(simPktGap)*simPktsPerFlow,
		})
		for k := 0; k < simPktsPerFlow; k++ {
			t := start + netsim.Duration(simPktGap)*netsim.Time(k)
			seq := len(due)
			due = append(due, t)
			d.Sim.At(t, func() {
				p := packet.NewUDP(simClientIP, simSinkIP, sport, 443, 64)
				p.Seq = uint64(seq)
				p.SentAt = int64(t)
				client.SendPacket(p)
			})
		}
	}
	r.sent = len(due)
	deliveredAt := make([]netsim.Time, len(due))
	sink.Handler = func(f *netsim.Frame) {
		if f.Pkt == nil || f.Pkt.Seq >= uint64(len(due)) || deliveredAt[f.Pkt.Seq] != 0 {
			return
		}
		deliveredAt[f.Pkt.Seq] = d.Now()
		r.delivered++
	}

	// The crash lands at a seeded offset within a membership probe
	// interval, so the detection wait it measures is not always the same
	// grid-aligned value.
	crashAt := simHeadCrash + time.Duration(rng.Int63n(int64(member.DefaultProbeInterval)))
	d.ScheduleFaultEvents(redplane.FaultSchedule{Events: []redplane.FaultEvent{
		{At: simSwitchFail, Kind: failure.AggFail, Agg: 0, DetectDelay: time.Millisecond},
		{At: crashAt, Kind: failure.StoreFail, Shard: 0, Replica: 0, Cold: true},
		{At: simHeadRecover, Kind: failure.StoreRecover, Shard: 0, Replica: 0},
	}})

	// Single lease holder: no two switches may hold a live flow's lease.
	end := netsim.Duration(simTraffic + simQuiesce)
	d.Sim.Every(netsim.Duration(simLeaseProbe), netsim.Duration(simLeaseProbe), func() bool {
		now := d.Now()
		for _, f := range flows {
			if f.start > now || f.end+netsim.Duration(simLease) < now {
				continue
			}
			holders := 0
			for i := 0; i < d.Switches(); i++ {
				if d.Switch(i).HasLease(f.key) {
					holders++
				}
			}
			if holders > 1 && len(r.violations) < 8 {
				r.violations = append(r.violations, fmt.Sprintf(
					"lease-exclusion: flow %v held by %d switches at %v", f.key, holders, time.Duration(now)))
			}
		}
		return now < end
	})
	// The splice: the coordinator's view change after the head crash.
	crashT := netsim.Duration(crashAt)
	view0 := uint64(0)
	d.Sim.Every(crashT, netsim.Duration(10*time.Microsecond), func() bool {
		v := d.Cluster.ViewNum(0)
		if d.Now() == crashT {
			view0 = v
			return true
		}
		if v != view0 {
			r.splice = time.Duration(d.Now() - crashT)
			return false
		}
		return d.Now() < end
	})

	// Warm-up: step until the first write is acknowledged.
	for d.Journal.Len() == 0 && d.Sim.Step() {
	}
	r.setup = time.Since(t0)

	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t1 := time.Now()
	for d.Sim.Now() < end && d.Sim.Step() {
		r.events++
	}
	r.loop = time.Since(t1)
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m0

	for i, t := range deliveredAt {
		if t == 0 {
			continue
		}
		l := float64(t-due[i]) / 1e3
		r.lat = append(r.lat, l)
		if traced {
			r.spans = append(r.spans, span{id: uint64(i + 1), name: "sim.packet",
				start: int64(due[i]), end: int64(t)})
		}
	}

	// Stall: the longest gap between acknowledged writes from the crash
	// on, while traffic still arrives.
	var acks []int64
	for _, e := range d.Journal.Entries() {
		acks = append(acks, e.At)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	prev := int64(crashT)
	for _, a := range acks {
		if a < int64(crashT) || a > int64(netsim.Duration(simTraffic)) {
			continue
		}
		if gap := time.Duration(a - prev); gap > r.stall {
			r.stall = gap
		}
		prev = a
	}

	snap := d.Snapshot()
	r.replSends = snap.Totals.ReplSends
	r.retrans = snap.Totals.Retransmits
	for _, sw := range snap.Switches {
		if sw.MaxBufBytes > r.bufHigh {
			r.bufHigh = sw.MaxBufBytes
		}
	}
	r.egressMsgs, r.egressDgs = snap.Totals.EgressMsgs, snap.Totals.EgressBatches
	for k, v := range d.Observe().Counters() {
		if strings.HasSuffix(k, "/view_changes") {
			r.views += v
		}
	}

	r.violations = append(r.violations, checkSim(d)...)
	// The deployment's memory: its live heap at the end, with the
	// recordings the checks read.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(int64(ms.HeapAlloc)-int64(heap0)) / (1 << 20)
	runtime.KeepAlive(d)
	if r.splice == 0 {
		r.violations = append(r.violations, "membership: the head crash never changed the view")
	}
	return r
}

// checkSim runs the quiescence-time output checks: no acknowledged write
// lost, per-flow linearizability of the counter history, replica
// agreement, and no overlapping lease grant at the store.
func checkSim(d *redplane.Deployment) []string {
	var vio []string
	type keySeq struct {
		key packet.FiveTuple
		seq uint64
	}
	seen := map[keySeq][]uint64{}
	last := map[packet.FiveTuple]redplane.JournalEntry{}
	for _, e := range d.Journal.Entries() {
		ks := keySeq{e.Key, e.Seq}
		if prev, ok := seen[ks]; ok && !equalVals(prev, e.Vals) {
			vio = append(vio, fmt.Sprintf("lost-write: flow %v seq %d acked with %v and %v", e.Key, e.Seq, prev, e.Vals))
		}
		seen[ks] = e.Vals
		if m, ok := last[e.Key]; !ok || e.Seq > m.Seq {
			last[e.Key] = e
		}
	}
	for k, e := range last {
		vals, lastSeq, ok := d.Cluster.Tail(d.Cluster.ShardFor(k)).Shard().State(k)
		if !ok || lastSeq < e.Seq || (lastSeq == e.Seq && !equalVals(vals, e.Vals)) {
			vio = append(vio, fmt.Sprintf("lost-write: flow %v acked seq %d %v, tail has seq %d %v",
				k, e.Seq, e.Vals, lastSeq, vals))
			if len(vio) > 8 {
				break
			}
		}
	}
	if err := d.CheckLinearizable(); err != nil {
		vio = append(vio, "linearizability: "+err.Error())
	}
	if err := d.ChainAgreement(); err != nil {
		vio = append(vio, "chain-agreement: "+err.Error())
	}
	if n := d.Snapshot().Totals.StoreOverlappingGrants; n > 0 {
		vio = append(vio, fmt.Sprintf("overlapping-grant: %d", n))
	}
	return vio
}

func equalVals(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runSim repeats the scenario on seeds derived from o.seed until the
// measured time is used up, and pools the results. A traced run traces
// every other deployment; the two sets give the tracing overhead.
func runSim(o *options) (*outcome, error) {
	out := newOutcome()
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.smoke {
		budget = 0
	}
	var runs, tracedRuns []simRun
	start := time.Now()
	for i := int64(0); ; i++ {
		traced := o.trace && i%2 == 1
		r := runSimOnce(mix(o.seed, i), traced)
		if traced {
			tracedRuns = append(tracedRuns, r)
		} else {
			runs = append(runs, r)
		}
		if time.Since(start) >= budget && (!o.trace || len(tracedRuns) > 0) {
			break
		}
	}
	all := append(append([]simRun(nil), runs...), tracedRuns...)
	var setups, stalls, splices []float64
	var lat []float64
	var sent, delivered int
	var events int64
	var mallocs, repl, retrans, views uint64
	var loop time.Duration
	var bufHigh int
	var egressMsgs, egressDgs uint64
	for _, r := range all {
		setups = append(setups, r.setup.Seconds())
		stalls = append(stalls, float64(r.stall)/1e6)
		splices = append(splices, float64(r.splice)/1e6)
		sent += r.sent
		delivered += r.delivered
		events += r.events
		mallocs += r.mallocs
		repl += r.replSends
		retrans += r.retrans
		views += r.views
		bufHigh = max(bufHigh, r.bufHigh)
		egressMsgs += r.egressMsgs
		egressDgs += r.egressDgs
		for _, v := range r.violations {
			out.fail("%s", v)
		}
	}
	// The end-to-end numbers come from the untraced runs only.
	for _, r := range runs {
		lat = append(lat, r.lat...)
		loop += r.loop
	}
	// The simulator's speed is the median over the runs, so a burst of
	// outside load on the host moves one run, not the result.
	var rates []float64
	for _, r := range runs {
		rates = append(rates, float64(r.delivered)/r.loop.Seconds())
	}
	sort.Float64s(lat)
	wallRate := median(rates)
	out.attempted += int64(sent)
	out.set("setup_s", median(setups))
	out.set("goodput_wps", wallRate)
	out.set("write_p50_us", percentile(lat, 0.5))
	out.set("write_p99_us", percentile(lat, 0.99))
	out.set("write_samples", float64(len(lat)))
	// The simulated store has no process of its own; its figure is the
	// memory one simulated deployment holds.
	var heaps []float64
	for _, r := range all {
		heaps = append(heaps, r.heapMB)
	}
	out.set("store_rss_mb", median(heaps))
	out.set("sim_pkts_per_wall_s", wallRate)
	out.set("sim_goodput_kpps", float64(delivered)/float64(len(all))/(simTraffic+simQuiesce).Seconds()/1e3)
	out.set("sim_pkt_p50_us", percentile(lat, 0.5))
	out.set("sim_pkt_p99_us", percentile(lat, 0.99))
	out.set("sim_failover_stall_ms", median(stalls))
	out.set("netsim.events_per_pkt", float64(events)/float64(sent))
	var allLoop time.Duration
	for _, r := range all {
		allLoop += r.loop
	}
	out.set("netsim.ns_per_event", float64(allLoop.Nanoseconds())/float64(events))
	out.set("sim.allocs_per_pkt", float64(mallocs)/float64(sent))
	out.set("core.repl_msgs_per_pkt", float64(repl)/float64(sent))
	out.set("core.retrans_per_pkt", float64(retrans)/float64(sent))
	out.set("core.buf_bytes_high", float64(bufHigh))
	out.set("store.sim_batch_size", float64(egressMsgs)/float64(max(egressDgs, 1)))
	out.set("member.view_changes", float64(views)/float64(len(all)))
	out.set("member.splice_ms", median(splices))
	fmt.Fprintf(os.Stderr, "sim: %d runs (%d traced), %d/%d packets delivered, write latency from %d samples\n",
		len(all), len(tracedRuns), delivered, sent, len(lat))

	if o.trace {
		var spans []span
		var tlat []float64
		var tloop time.Duration
		tdel := 0
		for _, r := range tracedRuns {
			spans = append(spans, r.spans...)
			tlat = append(tlat, r.lat...)
			tloop += r.loop
			tdel += r.delivered
		}
		sort.Float64s(tlat)
		if err := writeSpans(o, spans); err != nil {
			return nil, err
		}
		out.set("trace.spans", float64(len(spans)))
		out.set("trace.overhead_p50_pct", overheadPct(percentile(tlat, 0.5), percentile(lat, 0.5), false))
		out.set("trace.overhead_goodput_pct", overheadPct(float64(tdel)/tloop.Seconds(), wallRate, true))
		// The simulator has no replayed layer calls: its per-packet
		// latency is virtual time, all of it modelled.
		out.set("ladder.unattributed_us", 0)
	}
	zeroMissing(out)
	return out, nil
}
