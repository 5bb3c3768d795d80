package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spinddt/internal/apps"
	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/fabric"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/plan"
	"spinddt/internal/sim"
)

// --- sim-apps: the paper's single-NIC unpack of application datatypes ---

// appStrategies are the Fig. 16 series: the host baseline, the two sPIN
// offloads and the Portals 4 iovec baseline.
var appStrategies = []core.Strategy{core.HostUnpack, core.RWCP, core.Specialized, core.PortalsIovec}

// appStrategyNames name the core.run_us metrics.
var appStrategyNames = map[core.Strategy]string{
	core.HostUnpack: "host", core.RWCP: "rwcp", core.Specialized: "specialized", core.PortalsIovec: "iovec",
}

// appRunSpan names the span of a Session.Run under each strategy.
func appRunSpan(s core.Strategy) string { return "core.Session.Run:" + appStrategyNames[s] }

func appSpans() []spanMetric {
	var out []spanMetric
	for _, s := range appStrategies {
		out = append(out, spanMetric{"core.run_us." + appStrategyNames[s], appRunSpan(s), 1})
	}
	return out
}

// appMaxFootprint bounds the receive buffer of a sim-apps instance.
const appMaxFootprint = 16 << 20

// appInstances are the Fig. 16 instances whose receive footprint is at
// most appMaxFootprint: 45 of 47. The other two (NAS-MG/d at 127 MiB and
// FFT2D/d at 63 MiB for 0.5 and 2 MiB messages) draw pooled receive
// buffers of that size, and whether a pooled one survived the last GC
// moves a trial's peak memory and time by the buffer's whole size.
var appInstances = func() []apps.Instance {
	var out []apps.Instance
	for _, in := range apps.All() {
		if _, hi := in.Type.Commit().Footprint(in.Count); hi <= appMaxFootprint {
			out = append(out, in)
		}
	}
	return out
}()

type appOp struct {
	inst     apps.Instance
	strategy core.Strategy
	span     string
	want     sim.Time // simulated processing time seen on the first run
}

type appsLoad struct {
	sess *core.Session
	seed int64
	deck []appOp // every (instance, strategy) pair once, in seeded order
	// Simulated bytes and processing time since mark.
	simBytes int64
	simTime  sim.Time
}

func newApps(seed int64, _ int, _ bool) (load, error) {
	l := &appsLoad{sess: core.NewSession(core.NewSessionConfig()), seed: seed}
	for _, in := range appInstances {
		for _, s := range appStrategies {
			l.deck = append(l.deck, appOp{inst: in, strategy: s, span: appRunSpan(s)})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(l.deck), func(i, j int) {
		l.deck[i], l.deck[j] = l.deck[j], l.deck[i]
	})
	return l, nil
}

// op runs one Session.Run. The session compares the receive buffer with
// the reference unpack itself (Request.Verify); the benchmark checks that
// it did, that the size is right, and that the simulation repeats.
func (l *appsLoad) op(_, i int, tr *tracer) (int64, error) {
	a := &l.deck[i%len(l.deck)]
	req := core.NewRequest(a.strategy, a.inst.Type, a.inst.Count)
	req.Seed = l.seed
	s := tr.begin(a.span)
	res, err := l.sess.Run(req)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("%s %v: %w", a.inst.Name(), a.strategy, err)
	}
	s = tr.begin("bench.verify")
	defer tr.end(s)
	want := a.inst.Type.Size() * int64(a.inst.Count)
	if !res.Verified || res.MsgBytes != want || res.ProcTime <= 0 {
		return 0, fmt.Errorf("%s %v: verified %v, %d bytes (want %d), proc time %v",
			a.inst.Name(), a.strategy, res.Verified, res.MsgBytes, want, res.ProcTime)
	}
	if a.want == 0 {
		a.want = res.ProcTime
	} else if res.ProcTime != a.want {
		return 0, fmt.Errorf("%s %v: simulated time %v, earlier run %v", a.inst.Name(), a.strategy, res.ProcTime, a.want)
	}
	l.simBytes += res.MsgBytes
	l.simTime += res.ProcTime
	return res.MsgBytes, nil
}

func (l *appsLoad) ladder(int, int, *tracer) error { return nil }

func (l *appsLoad) mark() { l.simBytes, l.simTime = 0, 0 }

// counters reports the simulated throughput: simulated bytes over
// simulated processing time. Trials run whole decks, so it does not
// depend on the seed.
func (l *appsLoad) counters(int) map[string]float64 {
	return map[string]float64{"sim.apps_gbps": float64(l.simBytes) * 8 / l.simTime.Seconds() / 1e9}
}

func (l *appsLoad) close() { l.sess.Close() }

// --- sim-halo: the sharded multi-NIC exchange ---

const (
	haloRanks = 32
	haloDirs  = 2 // slot 0 receives from the right neighbour, slot 1 from the left
)

// haloType is the ring's neighbour message: 32 blocks of 2 KiB at a 4 KiB
// stride, 64 KiB.
func haloType() *ddt.Type { return ddt.MustVector(32, 512, 1024, ddt.Int).Commit() }

type haloLoad struct {
	typ        *ddt.Type
	params     core.BuildParams
	blocks     []ddt.Block
	srcs, dsts [][]byte
	offs       []*core.Offload
	// Exchanges, synchronization windows and simulated makespan since
	// mark.
	exchanges int
	windows   uint64
	makespan  sim.Time
	rungs     *simRungs // traced trials only
}

func newHalo(seed int64, _ int, traced bool) (load, error) {
	typ := haloType()
	_, hi := typ.Footprint(1)
	l := &haloLoad{
		typ: typ, blocks: typ.Flatten(1),
		params: core.BuildParams{
			Type: typ, Count: 1,
			NIC: nic.DefaultConfig(), Cost: core.DefaultCostModel(), Host: hostcpu.DefaultConfig(),
			Epsilon: 0.2,
		},
		offs: make([]*core.Offload, haloRanks*haloDirs),
	}
	for i := 0; i < haloRanks*haloDirs; i++ {
		src := make([]byte, hi)
		fill(seed*haloRanks*haloDirs+int64(i), src)
		l.srcs = append(l.srcs, src)
		l.dsts = append(l.dsts, make([]byte, hi))
	}
	if traced {
		l.rungs = newSimRungs(typ, l.srcs[0])
	}
	return l, nil
}

func (l *haloLoad) strategy(i int) core.Strategy {
	return core.OffloadStrategies[i%len(core.OffloadStrategies)]
}

// op runs one ring halo exchange under the next offload strategy and
// verifies every destination. A traced op also counts the exchange's heap
// allocation.
func (l *haloLoad) op(_, i int, tr *tracer) (int64, error) {
	eps, err := l.prepare(l.strategy(i), tr)
	defer l.release(tr)
	if err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	if tr.tracing() {
		runtime.ReadMemStats(&m0)
	}
	s := tr.begin("nic.RunExchange")
	res, err := nic.RunExchange(eps, runtime.GOMAXPROCS(0))
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if tr.tracing() {
		runtime.ReadMemStats(&m1)
		pkts := len(l.dsts) * int(fabric.DefaultConfig().NumPackets(l.typ.Size()))
		tr.add("nic.alloc_B_per_sim_pkt", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(pkts))
	}
	s = tr.begin("bench.verify")
	err = l.verify(res)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	l.exchanges++
	l.windows += res.Windows
	l.makespan += res.Makespan
	return int64(len(l.dsts)) * l.typ.Size(), nil
}

// prepare builds the gather context and one receive offload (both
// template-cached after the first exchange), instantiates the other
// receive slots from it and wires the ring. The caller runs the exchange
// sharded over GOMAXPROCS workers and then releases the offloads.
func (l *haloLoad) prepare(strategy core.Strategy, tr *tracer) ([]nic.ExchangeEndpoint, error) {
	s := tr.begin("core.BuildTxOffload")
	tx, err := core.BuildTxOffload(l.params)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.BuildOffload")
	l.offs[0], err = core.BuildOffload(strategy, l.params)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.Offload.Instantiate")
	for j := 1; j < len(l.offs) && err == nil; j++ {
		l.offs[j], err = l.offs[0].Instantiate()
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	eps := make([]nic.ExchangeEndpoint, haloRanks)
	msg := l.typ.Size()
	for r := range eps {
		left, right := (r+haloRanks-1)%haloRanks, (r+1)%haloRanks
		recvs := make([]nic.BatchMessage, haloDirs)
		for slot := range recvs {
			recvs[slot] = nic.BatchMessage{PT: l.offs[r*haloDirs+slot].PT(), Bits: 1, Host: l.dsts[r*haloDirs+slot]}
		}
		eps[r] = nic.ExchangeEndpoint{
			Cfg:   nic.DefaultConfig(),
			Recvs: recvs,
			Sends: []nic.ExchangeSend{
				{Msg: nic.TxMessage{Kind: nic.TxProcessPut, MsgBytes: msg, Ctx: tx.Ctx, Src: l.srcs[r*haloDirs]}, Dst: left, DstRecv: 0},
				{Msg: nic.TxMessage{Kind: nic.TxProcessPut, MsgBytes: msg, Ctx: tx.Ctx, Src: l.srcs[r*haloDirs+1]}, Dst: right, DstRecv: 1},
			},
		}
	}
	return eps, nil
}

func (l *haloLoad) release(tr *tracer) {
	s := tr.begin("core.Offload.Release")
	for j, o := range l.offs {
		if o != nil {
			o.Release()
			l.offs[j] = nil
		}
	}
	tr.end(s)
}

// verify checks every destination against the source of the rank that
// sent it: sender and receiver share the datatype, so each typemap region
// must equal the source's bytes at the same offsets and every gap must
// still be zero. Verified regions are cleared again, so the next exchange
// is checked from a zeroed buffer.
func (l *haloLoad) verify(res nic.ExchangeResult) error {
	if res.Makespan <= 0 {
		return fmt.Errorf("halo exchange reported makespan %v", res.Makespan)
	}
	for r := 0; r < haloRanks; r++ {
		for slot := 0; slot < haloDirs; slot++ {
			from := ((r+1)%haloRanks)*haloDirs + 0
			if slot == 1 {
				from = ((r+haloRanks-1)%haloRanks)*haloDirs + 1
			}
			dst := l.dsts[r*haloDirs+slot]
			if !regionsMatch(l.blocks, l.srcs[from], dst) {
				return fmt.Errorf("halo rank %d slot %d: destination differs from the sender's source", r, slot)
			}
			for _, b := range l.blocks {
				clear(dst[b.Offset : b.Offset+b.Size])
			}
		}
	}
	return nil
}

// regionsMatch reports whether dst equals src on every region of the
// (monotone) block list and is zero everywhere else.
func regionsMatch(blocks []ddt.Block, src, dst []byte) bool {
	var cursor int64
	for _, b := range blocks {
		end := b.Offset + b.Size
		if !isZero(dst[cursor:b.Offset]) || !bytes.Equal(dst[b.Offset:end], src[b.Offset:end]) {
			return false
		}
		cursor = end
	}
	return isZero(dst[cursor:])
}

var zeros [4096]byte

func isZero(b []byte) bool {
	for len(b) > len(zeros) {
		if !bytes.Equal(b[:len(zeros)], zeros[:]) {
			return false
		}
		b = b[len(zeros):]
	}
	return bytes.Equal(b, zeros[:len(b)])
}

// ladder follows every traced RW-CP exchange with the simulator ladder:
// the exchange rung is the op's own RunExchange, and the lower rungs are
// replayed beside it.
func (l *haloLoad) ladder(_, i int, tr *tracer) error {
	if l.strategy(i) != core.RWCP {
		return nil
	}
	ex, ok := tr.last("nic.RunExchange")
	if !ok {
		return fmt.Errorf("simulator ladder: op %d recorded no exchange span", i)
	}
	return l.rungs.replay(ex/float64(len(l.dsts)), tr)
}

func (l *haloLoad) mark() { l.exchanges, l.windows, l.makespan = 0, 0, 0 }

// counters reports the synchronization windows per exchange and the
// simulated throughput: every message's bytes over the summed makespans.
// Both are deterministic: trials run whole decks of strategies.
func (l *haloLoad) counters(int) map[string]float64 {
	bytes := float64(l.exchanges*len(l.dsts)) * float64(l.typ.Size())
	return map[string]float64{
		"sim.windows_per_op": float64(l.windows) / float64(l.exchanges),
		"sim.halo_gbps":      bytes * 8 / l.makespan.Seconds() / 1e9,
	}
}

func (l *haloLoad) close() {
	l.release(nil)
	if l.rungs != nil {
		l.rungs.close()
	}
}

// simRungs are the lower rungs of the simulator ladder and the sender's
// gather kernel, on the halo message.
type simRungs struct {
	typ    *ddt.Type
	sess   *core.Session // SimBackend, for the serial receive
	gather *plan.Gather
	src    hostReader
	gbuf   []byte
	eng    *sim.Engine
	chain  eventChain
}

func newSimRungs(typ *ddt.Type, src []byte) *simRungs {
	r := &simRungs{typ: typ, sess: core.NewSession(core.NewSessionConfig()), src: hostReader(src),
		gbuf: make([]byte, typ.Size()), eng: sim.New()}
	r.gather, _ = core.GatherPlan(typ, 1)
	r.chain.eng = r.eng
	return r
}

// replay measures the rungs under an exchange that cost exchange
// microseconds per message: one event, one serial RW-CP receive of the
// message, and the gather of the whole message in MTU packets.
func (r *simRungs) replay(exchange float64, tr *tracer) error {
	ev, err := r.eventRung()
	if err != nil {
		return err
	}
	tr.add("ladder.event_ns", ev)

	t0 := time.Now()
	res, err := r.sess.Run(core.NewRequest(core.RWCP, r.typ, 1))
	d := time.Since(t0)
	if err == nil && !res.Verified {
		err = fmt.Errorf("not verified")
	}
	if err != nil {
		return fmt.Errorf("receive rung: %w", err)
	}
	tr.add("ladder.receive_us_per_msg", micros(d))
	tr.add("ladder.exchange_us_per_msg", exchange)
	tr.add("ladder.exchange_marginal_us_per_msg", exchange-micros(d))

	mtu := fabric.DefaultConfig().MTU
	msg := int64(len(r.gbuf))
	t0 = time.Now()
	for off := int64(0); off < msg; off += mtu {
		n := min(mtu, msg-off)
		if r.gather.Resolve(off, n, r.gbuf[off:off+n], &r.src) <= 0 {
			return fmt.Errorf("plan gather: packet at %d resolved no blocks", off)
		}
	}
	d = time.Since(t0)
	if !r.typ.Plan().Equal(1, []byte(r.src), r.gbuf) {
		return fmt.Errorf("plan gather: stream differs from the source")
	}
	tr.add("plan.gather_us", micros(d))
	return nil
}

func (r *simRungs) close() { r.sess.Close() }

// hostReader is the gather rung's in-memory read path; the pointer
// receiver keeps the plan.Reader conversion allocation-free.
type hostReader []byte

func (h *hostReader) Read(off int64, dst []byte) { copy(dst, (*h)[off:off+int64(len(dst))]) }

// eventChain is the event rung's model: self-rescheduling chains of typed
// no-op events with mixed spacings, the shape of the NIC pipeline's
// schedule.
type eventChain struct {
	eng  *sim.Engine
	self sim.Ctx
	left int64
}

var chainKind sim.Kind

func init() {
	chainKind = sim.RegisterKind("spinbench.chain", func(ctx any, a, _ int64) {
		c := ctx.(*eventChain)
		if c.left <= 0 {
			return
		}
		c.left--
		c.eng.Post(c.eng.Now()+sim.Time(a%8)*40*sim.Nanosecond, chainKind, c.self, a+1, 0)
	})
}

const (
	eventChains  = 16
	eventsPerRun = 4096
)

// eventRung returns the host nanoseconds per event of a bench-owned
// engine firing the chains.
func (r *simRungs) eventRung() (float64, error) {
	r.eng.Reset()
	r.chain.self = r.eng.Bind(&r.chain)
	r.chain.left = eventsPerRun
	for i := range eventChains {
		r.eng.Post(sim.Time(i)*100*sim.Nanosecond, chainKind, r.chain.self, int64(i), 0)
	}
	t0 := time.Now()
	r.eng.Run()
	d := time.Since(t0)
	fired := r.eng.Fired()
	if fired != eventsPerRun+eventChains {
		return 0, fmt.Errorf("event rung: %d events fired, want %d", fired, eventsPerRun+eventChains)
	}
	return float64(d.Nanoseconds()) / float64(fired), nil
}
