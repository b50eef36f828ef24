package main

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// The generator's phases. Writes acknowledged in phaseMeasure give the
// end-to-end numbers; in phaseTraced every acknowledged operation is also
// recorded as a span. From phaseDrain on no new operation starts.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseTraced
	phaseDrain
)

// genSwitchID is the one switch the generator plays: a real RedPlane
// switch leases all of its flows under its own ID.
const genSwitchID = 1

// rto is the generator's retransmission timeout: far above any healthy
// acknowledgement latency, so it fires only for lost datagrams.
const rto = 200 * time.Millisecond

// gen is the windowed closed-loop load generator. Each socket has its
// own share of the operations, a reader goroutine that processes
// acknowledgements and sends the next requests they allow, and a ticker
// goroutine that retransmits stalled ones. Sockets are unconnected, each
// datagram sent to an explicit address: a chain's tail acknowledges from
// a different address than the head the requests go to, and a connected
// socket would drop every one of those acknowledgements.
type gen struct {
	target netip.AddrPort
	phase  atomic.Int32
	socks  []*gsock
	wg     sync.WaitGroup
	stop   chan struct{}
}

// handler is one socket's workload logic; its methods run under the
// socket's mutex.
type handler interface {
	start(s *gsock, now int64)
	onMsg(s *gsock, m *wire.Message, now int64)
	tick(s *gsock, now int64)
}

// gsock is one socket and the tallies of the operations it carries.
type gsock struct {
	g    *gen
	conn *net.UDPConn
	io   *batchIO
	mu   sync.Mutex
	h    handler
	tx   []byte
	msgs []wire.Message
	ptrs []*wire.Message
	vals []uint64

	issued   int64     // writes (or opens) started
	acked    int64     // writes acknowledged, any phase
	measured int64     // operations completed in phaseMeasure
	traced   int64     // operations completed in phaseTraced
	lat      []float64 // µs, phaseMeasure operations
	tlat     []float64 // µs, phaseTraced operations
	wlat     []float64 // µs, the write leg of phaseMeasure opens
	spans    []span
	retrans  int64
	rejects  int64
	bad      []string // failed output checks seen on the wire
}

// maxDgramWrites bounds the writes one generator datagram carries.
const maxDgramWrites = 64

func newGen(target *net.UDPAddr, sockets int, mk func(i int) handler) (*gen, error) {
	ap := target.AddrPort()
	g := &gen{target: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), stop: make(chan struct{})}
	for i := 0; i < sockets; i++ {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			g.close()
			return nil, fmt.Errorf("loadgen: bind: %w", err)
		}
		conn.SetReadBuffer(4 << 20)
		conn.SetWriteBuffer(4 << 20)
		bio, err := newBatchIO(conn, g.target)
		if err != nil {
			conn.Close()
			g.close()
			return nil, err
		}
		s := &gsock{g: g, conn: conn, io: bio, h: mk(i),
			msgs: make([]wire.Message, maxDgramWrites),
			ptrs: make([]*wire.Message, maxDgramWrites),
			vals: make([]uint64, maxDgramWrites)}
		for j := range s.msgs {
			s.ptrs[j] = &s.msgs[j]
		}
		g.socks = append(g.socks, s)
	}
	return g, nil
}

// run starts every socket's goroutines and lets each handler send its
// first requests.
func (g *gen) run() {
	for _, s := range g.socks {
		s.mu.Lock()
		s.h.start(s, clock())
		s.io.flush()
		s.mu.Unlock()
		g.wg.Add(2)
		go s.readLoop()
		go s.tickLoop()
	}
}

// swap replaces every socket's handler (the verification pass reuses the
// sockets after the load has drained).
func (g *gen) swap(mk func(i int) handler) {
	for i, s := range g.socks {
		s.mu.Lock()
		s.h = mk(i)
		s.h.start(s, clock())
		s.io.flush()
		s.mu.Unlock()
	}
}

// close stops the goroutines and waits for them.
func (g *gen) close() {
	select {
	case <-g.stop:
		return
	default:
	}
	close(g.stop)
	for _, s := range g.socks {
		s.conn.Close()
	}
	g.wg.Wait()
}

// each runs fn on every socket under its mutex.
func (g *gen) each(fn func(s *gsock)) {
	for _, s := range g.socks {
		s.mu.Lock()
		fn(s)
		s.mu.Unlock()
	}
}

func (s *gsock) readLoop() {
	defer s.g.wg.Done()
	var m wire.Message
	var bt wire.Batch
	for {
		ds, err := s.io.read()
		if err != nil {
			return
		}
		now := clock()
		s.mu.Lock()
		for _, b := range ds {
			if wire.IsBatch(b) {
				if bt.Unmarshal(b) == nil {
					for _, x := range bt.Msgs {
						s.h.onMsg(s, x, now)
					}
				}
			} else if m.Unmarshal(b) == nil {
				s.h.onMsg(s, &m, now)
			}
		}
		s.io.flush()
		s.mu.Unlock()
	}
}

func (s *gsock) tickLoop() {
	defer s.g.wg.Done()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.g.stop:
			return
		case <-t.C:
			s.mu.Lock()
			s.h.tick(s, clock())
			s.io.flush()
			s.mu.Unlock()
		}
	}
}

// send queues one datagram; it leaves with the socket's next flush.
func (s *gsock) send(b []byte) { s.io.queue(b) }

func (s *gsock) sendMsg(m *wire.Message) {
	s.tx = m.Marshal(s.tx[:0])
	s.send(s.tx)
}

// sendWrites sends one datagram carrying flow key's writes from..to, each
// with the value val gives its sequence number.
func (s *gsock) sendWrites(key packet.FiveTuple, from, to uint64, val func(seq uint64) uint64) {
	s.tx = appendWrites(s.tx[:0], s.msgs, s.ptrs, s.vals, key, from, to, val)
	s.send(s.tx)
}

// appendWrites marshals a write datagram: a plain message for one write,
// a batch otherwise. msgs, ptrs and vals are scratch of at least to-from+1.
func appendWrites(b []byte, msgs []wire.Message, ptrs []*wire.Message, vals []uint64,
	key packet.FiveTuple, from, to uint64, val func(seq uint64) uint64) []byte {
	n := int(to - from + 1)
	for i := 0; i < n; i++ {
		seq := from + uint64(i)
		vals[i] = val(seq)
		msgs[i] = wire.Message{Type: wire.MsgRepl, Seq: seq, Key: key,
			Vals: vals[i : i+1], SwitchID: genSwitchID}
	}
	if n == 1 {
		return msgs[0].Marshal(b)
	}
	bt := wire.Batch{Msgs: ptrs[:n]}
	return bt.Marshal(b)
}

func (s *gsock) sendLease(key packet.FiveTuple) {
	m := wire.Message{Type: wire.MsgLeaseNew, Key: key, SwitchID: genSwitchID}
	s.sendMsg(&m)
}

// complete records one finished operation that started at t0.
func (s *gsock) complete(id uint64, name string, t0, now int64) {
	switch s.g.phase.Load() {
	case phaseMeasure:
		s.measured++
		s.lat = append(s.lat, float64(now-t0)/1e3)
	case phaseTraced:
		s.traced++
		s.tlat = append(s.tlat, float64(now-t0)/1e3)
		s.spans = append(s.spans, span{id: id, name: name, start: t0, end: now})
	}
}

// flowKey is the seed's i-th flow key. The index goes through a bijection
// of 32 bits, so distinct indices give distinct keys.
func flowKey(seed, i int64) packet.FiveTuple {
	x := uint32(i)*0x9E3779B1 + uint32(mix(seed, -1))
	dst := uint32(mix(seed, -2))
	return packet.FiveTuple{
		Src:     packet.Addr(0x0A000000 | x&0xFFFFFF),
		Dst:     packet.Addr(0x64000000 | dst&0xFFFFFF),
		SrcPort: uint16(1024 + x>>24),
		DstPort: uint16(1 + dst>>24),
		Proto:   packet.ProtoUDP,
	}
}

// writeVal is the value the seed assigns to flow i's write seq.
func writeVal(seed, i int64, seq uint64) uint64 {
	return uint64(mix(seed^0x7a1e, i<<32|int64(seq&0xFFFFFFFF)))
}

// steady drives long-lived flows: each keeps at most window writes
// unacknowledged, sent batch writes to a datagram.
type steady struct {
	flows         []*sflow
	byKey         map[packet.FiveTuple]*sflow
	batch, window uint64
}

type sflow struct {
	idx         int64
	key         packet.FiveTuple
	leased      bool
	sent, acked uint64
	sendAt      []int64 // by seq % window, for seqs in (acked, sent]
	last        int64   // last send or progress
	val         func(seq uint64) uint64
}

func newSteady(seed int64, idxs []int64, batch, window int) *steady {
	st := &steady{byKey: map[packet.FiveTuple]*sflow{}, batch: uint64(batch), window: uint64(window)}
	for _, i := range idxs {
		i := i
		f := &sflow{idx: i, key: flowKey(seed, i), sendAt: make([]int64, window),
			val: func(seq uint64) uint64 { return writeVal(seed, i, seq) }}
		st.flows = append(st.flows, f)
		st.byKey[f.key] = f
	}
	return st
}

func (st *steady) start(s *gsock, now int64) {
	for _, f := range st.flows {
		s.sendLease(f.key)
		f.last = now
	}
}

func (st *steady) fill(s *gsock, f *sflow, now int64) {
	if s.g.phase.Load() >= phaseDrain || !f.leased {
		return
	}
	for f.sent+st.batch-f.acked <= st.window {
		from, to := f.sent+1, f.sent+st.batch
		for seq := from; seq <= to; seq++ {
			f.sendAt[seq%st.window] = now
		}
		s.sendWrites(f.key, from, to, f.val)
		f.sent = to
		f.last = now
		s.issued += int64(st.batch)
	}
}

func (st *steady) onMsg(s *gsock, m *wire.Message, now int64) {
	f := st.byKey[m.Key]
	if f == nil {
		return
	}
	switch m.Type {
	case wire.MsgLeaseNewAck:
		if f.leased {
			return
		}
		if f.sent == 0 && !m.NewFlow {
			s.bad = append(s.bad, fmt.Sprintf("flow %d: fresh key granted as existing flow", f.idx))
		}
		f.leased = true
		// A re-lease reports the flow's stored sequence: it covers
		// every write up to it, like an acknowledgement.
		st.ack(s, f, m.Seq, now)
		st.fill(s, f, now)
	case wire.MsgReplAck:
		st.ack(s, f, m.Seq, now)
		st.fill(s, f, now)
	case wire.MsgLeaseReject:
		s.rejects++
		f.leased = false
	}
}

// ack completes flow f's writes up to seq.
func (st *steady) ack(s *gsock, f *sflow, seq uint64, now int64) {
	if seq <= f.acked || seq > f.sent {
		return
	}
	for q := f.acked + 1; q <= seq; q++ {
		s.complete(uint64(f.idx)<<32|q, "client.write", f.sendAt[q%st.window], now)
	}
	s.acked += int64(seq - f.acked)
	f.acked = seq
	f.last = now
}

func (st *steady) tick(s *gsock, now int64) {
	for _, f := range st.flows {
		if now-f.last < int64(rto) {
			continue
		}
		switch {
		case !f.leased:
			s.sendLease(f.key)
		case f.sent > f.acked:
			// The top sequence alone converges the flow: acks are
			// cumulative and the store tolerates gaps.
			s.sendWrites(f.key, f.sent, f.sent, f.val)
		default:
			continue
		}
		f.last = now
		s.retrans++
	}
}

// outstanding is how many writes are sent but unacknowledged.
func (st *steady) outstanding() int64 {
	var n int64
	for _, f := range st.flows {
		n += int64(f.sent - f.acked)
	}
	return n
}

// churn drives connection opens: each is LeaseNew for a fresh key, then
// one write, after which the flow is never touched again. Every slot
// starts its next open as soon as the previous one completes.
type churn struct {
	seed         int64
	slots        []*oslot
	byKey        map[packet.FiveTuple]*oslot
	next, stride int64
	done         []int64 // completed opens' indices
}

type oslot struct {
	n            int64
	key          packet.FiveTuple
	stage        int // 0 idle, 1 leasing, 2 writing
	t0, tw, last int64
}

func newChurn(seed int64, first, stride int64, slots int) *churn {
	c := &churn{seed: seed, byKey: map[packet.FiveTuple]*oslot{}, next: first, stride: stride}
	for i := 0; i < slots; i++ {
		c.slots = append(c.slots, &oslot{})
	}
	return c
}

func (c *churn) open(s *gsock, o *oslot, now int64) {
	if s.g.phase.Load() >= phaseDrain {
		o.stage = 0
		return
	}
	o.n, o.key, o.stage, o.t0, o.last = c.next, flowKey(c.seed, c.next), 1, now, now
	c.next += c.stride
	c.byKey[o.key] = o
	s.issued++
	s.sendLease(o.key)
}

func (c *churn) start(s *gsock, now int64) {
	for _, o := range c.slots {
		c.open(s, o, now)
	}
}

func (c *churn) sendWrite(s *gsock, o *oslot) {
	s.sendWrites(o.key, 1, 1, func(seq uint64) uint64 { return writeVal(c.seed, o.n, seq) })
}

func (c *churn) onMsg(s *gsock, m *wire.Message, now int64) {
	o := c.byKey[m.Key]
	if o == nil {
		return
	}
	switch {
	case m.Type == wire.MsgLeaseNewAck && o.stage == 1:
		if !m.NewFlow || m.Seq != 0 {
			s.bad = append(s.bad, fmt.Sprintf("open %d: fresh key granted as existing flow (seq %d)", o.n, m.Seq))
		}
		o.stage, o.tw, o.last = 2, now, now
		c.sendWrite(s, o)
	case m.Type == wire.MsgReplAck && o.stage == 2 && m.Seq >= 1:
		if s.g.phase.Load() == phaseMeasure {
			s.wlat = append(s.wlat, float64(now-o.tw)/1e3)
		}
		s.complete(uint64(o.n)+1, "client.open", o.t0, now)
		s.acked++
		c.done = append(c.done, o.n)
		delete(c.byKey, o.key)
		c.open(s, o, now)
	case m.Type == wire.MsgLeaseReject:
		s.rejects++
	}
}

func (c *churn) tick(s *gsock, now int64) {
	for _, o := range c.slots {
		if o.stage == 0 || now-o.last < int64(rto) {
			continue
		}
		if o.stage == 1 {
			s.sendLease(o.key)
		} else {
			c.sendWrite(s, o)
		}
		o.last = now
		s.retrans++
	}
}

func (c *churn) outstanding() int64 {
	var n int64
	for _, o := range c.slots {
		if o.stage != 0 {
			n++
		}
	}
	return n
}

// verify re-leases flows under the generator's switch ID and checks that
// the store returns each flow's last acknowledged write. At most window
// re-leases are in flight per socket.
type verify struct {
	items   []vitem
	byKey   map[packet.FiveTuple]*vitem
	next    int
	window  int
	ok, bad int
	fails   []string
}

type vitem struct {
	key      packet.FiveTuple
	seq, val uint64
	last     int64
	done     bool
}

func newVerify(items []vitem, window int) *verify {
	return &verify{items: items, byKey: map[packet.FiveTuple]*vitem{}, window: window}
}

func (v *verify) issue(s *gsock, now int64) {
	for len(v.byKey) < v.window && v.next < len(v.items) {
		it := &v.items[v.next]
		v.next++
		v.byKey[it.key] = it
		it.last = now
		s.sendLease(it.key)
	}
}

func (v *verify) start(s *gsock, now int64) { v.issue(s, now) }

func (v *verify) onMsg(s *gsock, m *wire.Message, now int64) {
	it := v.byKey[m.Key]
	if it == nil || m.Type != wire.MsgLeaseNewAck {
		return
	}
	if m.Seq == it.seq && !m.NewFlow && len(m.Vals) == 1 && m.Vals[0] == it.val {
		v.ok++
	} else {
		v.bad++
		if len(v.fails) < 4 {
			v.fails = append(v.fails, fmt.Sprintf("flow %v: store holds seq %d %v, last acked write was seq %d [%d]",
				m.Key, m.Seq, m.Vals, it.seq, it.val))
		}
	}
	it.done = true
	delete(v.byKey, m.Key)
	v.issue(s, now)
}

func (v *verify) tick(s *gsock, now int64) {
	for k, it := range v.byKey {
		if now-it.last >= int64(rto) {
			it.last = now
			s.sendLease(k)
		}
	}
}

func (v *verify) finished() bool { return v.next == len(v.items) && len(v.byKey) == 0 }
