package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"redplane/internal/durable"
	"redplane/internal/packet"
	"redplane/internal/ring"
	"redplane/internal/store"
	"redplane/internal/wire"
)

// The layer replay re-runs a sample of the traced operations' datagrams
// through the public functions of each layer a store applies to them —
// wire decode, the receiver→shard ring, the shard, the WAL, the ack
// encode — timing each call as a span whose parent is the operation.
const (
	replayOps      = 1000  // traced operations replayed
	replaySyncs    = 300   // WAL group commits timed (durable workloads)
	pipelineItems  = 20000 // datagrams pushed through the ring pipeline
	storeRingSize  = 1024  // the store's default receiver→shard ring
	replayLease    = 30 * time.Second
	replaySwitchID = genSwitchID
)

// replayDgram is one request datagram of a sampled operation.
type replayDgram struct {
	parent uint64
	req    []byte
	lease  bool // a LeaseNew (a grant) rather than writes
}

// timerCost is the median cost of an empty span: subtracted from every
// span median so the figures are the calls', not the clock's.
func timerCost() float64 {
	ds := make([]float64, 2001)
	for i := range ds {
		t := clock()
		ds[i] = float64(clock() - t)
	}
	return median(ds)
}

func replayLayers(o *options, w realWorkload, ops []span, group float64, table int, out *outcome) ([]span, error) {
	sample := sampleSpans(ops, replayOps)
	if len(sample) == 0 {
		return nil, fmt.Errorf("%s: no traced operation to replay", w.name)
	}
	var dgrams []replayDgram
	for _, op := range sample {
		if w.churn() {
			n := int64(op.id - 1)
			key := flowKey(o.seed, n)
			m := wire.Message{Type: wire.MsgLeaseNew, Key: key, SwitchID: replaySwitchID}
			dgrams = append(dgrams,
				replayDgram{parent: op.id, req: m.Marshal(nil), lease: true},
				replayDgram{parent: op.id, req: writeDgram(key, 1, 1, func(uint64) uint64 { return writeVal(o.seed, n, 1) })})
			continue
		}
		idx, seq := int64(op.id>>32), op.id&0xFFFFFFFF
		first := (seq-1)/uint64(w.batch)*uint64(w.batch) + 1
		dgrams = append(dgrams, replayDgram{parent: op.id,
			req: writeDgram(flowKey(o.seed, idx), first, first+uint64(w.batch)-1,
				func(q uint64) uint64 { return writeVal(o.seed, idx, q) })})
	}

	cost := timerCost()
	var spans []span
	sp := func(parent uint64, name string, t0 int64) {
		spans = append(spans, span{parent: parent, name: name, start: t0, end: clock()})
	}

	// The shard the writes apply to. Long-lived flows are leased first;
	// churn opens grant fresh keys into a table grown to the size the run
	// reached (the grant cost and memory per flow are measured there).
	sh := store.NewShard(store.Config{LeasePeriod: replayLease})
	if w.churn() {
		grantNs, heapPerFlow := growTable(sh, o.seed, table)
		out.set("store.shard.grant_ns_per_flow", grantNs)
		out.set("store.shard.heap_bytes_per_flow", heapPerFlow)
	} else {
		for i := 0; i < w.flows; i++ {
			sh.Process(time.Now().UnixNano(), &wire.Message{Type: wire.MsgLeaseNew,
				Key: flowKey(o.seed, int64(i)), SwitchID: replaySwitchID})
		}
	}

	// The WAL, on a directory of the checkout, if the workload is durable.
	var wal *durable.WAL
	if w.durable {
		be, err := durable.NewDirBackend(filepath.Join(o.work, "replay-wal"))
		if err != nil {
			return nil, err
		}
		if wal, err = durable.OpenWAL(be, 0); err != nil {
			return nil, err
		}
		defer wal.Close()
	}
	groupSize := int(group + 0.5)
	if groupSize < 1 {
		groupSize = 1
	}

	// The ring handoff: a consumer goroutine stamps each item it pops.
	type handoff struct{ popped atomic.Int64 }
	rg := ring.New[*handoff](storeRingSize)
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			if h, ok := rg.Pop(); ok {
				h.popped.Store(clock())
				continue
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	// Replayed writes take fresh sequence numbers per flow, so each
	// applies as new (a stale replay would take the duplicate path).
	nextSeq := map[packet.FiveTuple]uint64{}
	var walBuf []byte
	staged, msgs, records := 0, 0, 0
	var m wire.Message
	var bt wire.Batch
	for _, d := range dgrams {
		t := clock()
		batch := wire.IsBatch(d.req)
		var in []*wire.Message
		if batch {
			if err := bt.Unmarshal(d.req); err != nil {
				return nil, err
			}
			in = bt.Msgs
		} else {
			if err := m.Unmarshal(d.req); err != nil {
				return nil, err
			}
			in = []*wire.Message{&m}
		}
		sp(d.parent, "wire.decode", t)

		h := &handoff{}
		t = clock()
		for !rg.Push(h) {
			runtime.Gosched()
		}
		for h.popped.Load() == 0 {
		}
		spans = append(spans, span{parent: d.parent, name: "ring.handoff", start: t, end: h.popped.Load()})

		if !d.lease {
			base := nextSeq[in[0].Key]
			for i, x := range in {
				x.Seq = base + uint64(i) + 1
			}
			nextSeq[in[0].Key] = base + uint64(len(in))
		}
		name := "store.shard.apply"
		if d.lease {
			name = "store.shard.grant"
		}
		t = clock()
		outs, ups := sh.ProcessBatch(time.Now().UnixNano(), in)
		sp(d.parent, name, t)
		if !d.lease {
			msgs += len(in)
		}

		if wal != nil && len(ups) > 0 {
			t = clock()
			for _, up := range ups {
				walBuf = store.EncodeUpdate(walBuf[:0], up)
				wal.Append(walBuf)
			}
			sp(d.parent, "durable.append", t)
			records += len(ups)
			staged += len(ups)
			if staged >= groupSize {
				t = clock()
				if err := wal.Sync(); err != nil {
					return nil, err
				}
				sp(d.parent, "durable.sync", t)
				staged = 0
			}
		}

		t = clock()
		encodeAcks(outs)
		sp(d.parent, "wire.encode", t)
	}
	close(stop)
	<-consumerDone

	// More group commits, if the sample gave too few for a p99.
	if wal != nil {
		for n := countSpans(spans, "durable.sync"); n < replaySyncs; n++ {
			up := store.Update{Key: flowKey(o.seed, 0), Vals: []uint64{uint64(n)}, LastSeq: uint64(n), Exists: true}
			walBuf = store.EncodeUpdate(walBuf[:0], up)
			for i := 0; i < groupSize; i++ {
				wal.Append(walBuf)
			}
			t := clock()
			if err := wal.Sync(); err != nil {
				return nil, err
			}
			sp(0, "durable.sync", t)
		}
	}

	med := spanMedians(spans)
	net := func(name string) float64 { return max(med[name]-cost, 0) }
	perDgram := float64(msgs) / float64(max(countSpans(spans, "store.shard.apply"), 1))
	out.set("wire.decode_ns_per_dgram", net("wire.decode"))
	out.set("wire.encode_ns_per_dgram", net("wire.encode"))
	out.set("ring.handoff_ns", net("ring.handoff"))
	out.set("store.shard.apply_ns_per_msg", net("store.shard.apply")/max(perDgram, 1))
	if wal != nil {
		perAppend := float64(records) / float64(max(countSpans(spans, "durable.append"), 1))
		out.set("durable.append_ns_per_record", net("durable.append")/max(perAppend, 1))
		out.set("durable.sync_p50_us", max(spanQuantile(spans, "durable.sync", 0.5)-cost, 0)/1e3)
		out.set("durable.sync_p99_us", max(spanQuantile(spans, "durable.sync", 0.99)-cost, 0)/1e3)
	}

	// Allocations, over bulk loops (a per-call count is too coarse).
	reqs := make([][]byte, 0, len(dgrams))
	for _, d := range dgrams {
		if !d.lease {
			reqs = append(reqs, d.req)
		}
	}
	out.set("wire.allocs_per_dgram", allocsPerDgram(reqs))
	out.set("store.shard.allocs_per_msg", allocsPerMsg(sh, reqs, nextSeq))
	out.set("ring.full_frac", ringFullFrac(sh, reqs, nextSeq))
	return spans, nil
}

// writeDgram marshals flow key's writes from..to as the generator does.
func writeDgram(key packet.FiveTuple, from, to uint64, val func(uint64) uint64) []byte {
	n := int(to - from + 1)
	msgs := make([]wire.Message, n)
	ptrs := make([]*wire.Message, n)
	for i := range msgs {
		ptrs[i] = &msgs[i]
	}
	return appendWrites(nil, msgs, ptrs, make([]uint64, n), key, from, to, val)
}

// encodeAcks marshals a processed datagram's acknowledgements as the
// store's egress does: one plain frame for a lone ack, a batch otherwise.
func encodeAcks(outs []store.Output) []byte {
	if len(outs) == 1 {
		return outs[0].Msg.Marshal(nil)
	}
	bt := wire.Batch{Msgs: make([]*wire.Message, len(outs))}
	for i, o := range outs {
		bt.Msgs[i] = o.Msg
	}
	return bt.Marshal(nil)
}

// growTable grants n fresh flows (indices disjoint from the workload's)
// into sh and returns the mean ns per grant and heap bytes per flow.
func growTable(sh *store.Shard, seed int64, n int) (float64, float64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	h0 := ms.HeapAlloc
	m := wire.Message{Type: wire.MsgLeaseNew, SwitchID: replaySwitchID}
	t := time.Now()
	for i := 0; i < n; i++ {
		m.Key = flowKey(seed, 1<<31+int64(i))
		sh.Process(time.Now().UnixNano(), &m)
	}
	el := time.Since(t)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	n = max(n, 1)
	return float64(el.Nanoseconds()) / float64(n), float64(int64(ms.HeapAlloc)-int64(h0)) / float64(n)
}

// decodeReq decodes one request datagram.
func decodeReq(b []byte) ([]*wire.Message, error) {
	if wire.IsBatch(b) {
		var bt wire.Batch
		if err := bt.Unmarshal(b); err != nil {
			return nil, err
		}
		return bt.Msgs, nil
	}
	m := new(wire.Message)
	if err := m.Unmarshal(b); err != nil {
		return nil, err
	}
	return []*wire.Message{m}, nil
}

// allocsPerDgram is heap allocations per datagram for a decode plus the
// encode of its acknowledgements.
func allocsPerDgram(reqs [][]byte) float64 {
	if len(reqs) == 0 {
		return 0
	}
	acks := make([][]store.Output, len(reqs))
	for i, b := range reqs {
		in, _ := decodeReq(b)
		for _, x := range in {
			acks[i] = append(acks[i], store.Output{Msg: &wire.Message{Type: wire.MsgReplAck, Seq: x.Seq, Key: x.Key}})
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for i, b := range reqs {
		decodeReq(b)
		encodeAcks(acks[i])
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / float64(len(reqs))
}

// allocsPerMsg is heap allocations per message applied by the shard.
func allocsPerMsg(sh *store.Shard, reqs [][]byte, nextSeq map[packet.FiveTuple]uint64) float64 {
	var batches [][]*wire.Message
	n := 0
	for _, b := range reqs {
		in, _ := decodeReq(b)
		base := nextSeq[in[0].Key]
		for i, x := range in {
			x.Seq = base + uint64(i) + 1
		}
		nextSeq[in[0].Key] = base + uint64(len(in))
		batches = append(batches, in)
		n += len(in)
	}
	if n == 0 {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for _, in := range batches {
		sh.ProcessBatch(time.Now().UnixNano(), in)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / float64(n)
}

// ringFullFrac runs the store's receive pipeline shape on the replayed
// datagrams: a producer goroutine decodes and pushes, a consumer pops,
// applies and encodes the acks. It returns the share of pushes that
// found the ring full.
func ringFullFrac(sh *store.Shard, reqs [][]byte, nextSeq map[packet.FiveTuple]uint64) float64 {
	if len(reqs) == 0 {
		return 0
	}
	rg := ring.New[[]*wire.Message](storeRingSize)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < pipelineItems; {
			in, ok := rg.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			got++
			base := nextSeq[in[0].Key]
			for i, x := range in {
				x.Seq = base + uint64(i) + 1
			}
			nextSeq[in[0].Key] = base + uint64(len(in))
			outs, _ := sh.ProcessBatch(time.Now().UnixNano(), in)
			encodeAcks(outs)
		}
	}()
	var attempts, full int
	for i := 0; i < pipelineItems; i++ {
		in, _ := decodeReq(reqs[i%len(reqs)])
		for {
			attempts++
			if rg.Push(in) {
				break
			}
			full++
			runtime.Gosched()
		}
	}
	<-done
	return float64(full) / float64(attempts)
}

// sampleSpans picks up to n client operations evenly over the traced run.
func sampleSpans(spans []span, n int) []span {
	var ops []span
	for _, s := range spans {
		if s.parent == 0 {
			ops = append(ops, s)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	if len(ops) <= n {
		return ops
	}
	out := make([]span, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ops[i*len(ops)/n])
	}
	return out
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// ladderSum is the summed layer medians along one operation's blocking
// path, in µs: every replica decodes, hands off, applies and (durable)
// logs and syncs the datagram before the tail encodes the ack; an open
// takes that path twice, once for the grant and once for the write.
func ladderSum(w realWorkload, out *outcome) float64 {
	v := out.values
	replicas := float64(w.stores)
	perDgram := 1.0
	if !w.churn() {
		perDgram = float64(w.batch)
	}
	hop := v["wire.decode_ns_per_dgram"] + v["ring.handoff_ns"] +
		v["store.shard.apply_ns_per_msg"]*perDgram +
		v["durable.append_ns_per_record"]*perDgram + v["durable.sync_p50_us"]*1e3
	sum := hop*replicas + v["wire.encode_ns_per_dgram"]
	if w.churn() {
		sum = 2*(hop*replicas+v["wire.encode_ns_per_dgram"]) + v["store.shard.grant_ns_per_flow"]
	}
	return sum / 1e3
}
