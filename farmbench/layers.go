package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/pool"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/core"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/fleet/wire"
	"l2fuzz/internal/metrics"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/testbed"
)

// The traced run: one checked farm repetition for the fleet spans and
// useful-work ratios, then every layer timed on its own by calls from
// this file into the layer's public functions, fed with the operation
// traces of the farm's own jobs. Nothing here runs inside the program
// under test, so end-to-end runs carry no tracing cost.

// layer accumulates one layer's per-call timings and allocations.
type layer struct {
	name, unit string
	scale      time.Duration // unit of the reported time
	perCall    []float64     // ns per call, one sample per timed call or batch
	calls      int
	allocs     float64 // heap allocations per call
	// diff marks a layer measured as the difference of two others;
	// meanDiff is then its mean per-call time.
	diff     bool
	meanDiff float64
}

// mean is the layer's mean per-call time in ns. Batches are equal-sized,
// so the mean of batch means is the mean per call.
func (l *layer) mean() float64 {
	if l.diff {
		return l.meanDiff
	}
	return sum(l.perCall) / float64(max(len(l.perCall), 1))
}

// timeMetric is the layer's median per-call time in its unit.
func (l *layer) timeMetric() metric {
	ns := summarize(l.perCall)
	f := float64(l.scale)
	return metric{l.name + "." + l.unit, l.unit, summary{ns.Median / f, ns.Q1 / f, ns.Q3 / f, ns.N}}
}

func (l *layer) callsMetric() metric {
	return metric{l.name + ".calls", "count", point(float64(l.calls))}
}

// metrics are the layer's time, call count and allocations per call.
func (l *layer) metrics() []metric {
	return []metric{l.timeMetric(), l.callsMetric(), {l.name + ".allocs", "allocs/call", point(l.allocs)}}
}

func point(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 1} }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs pass repeatedly until budget is spent (at least once).
// pass returns the number of calls it made into the layer; allocations
// per call are taken from the first pass.
func (l *layer) measure(budget time.Duration, pass func() int) {
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		m0 := mallocs()
		n := pass()
		if first && n > 0 {
			l.allocs = float64(mallocs()-m0) / float64(n)
		}
		l.calls += n
	}
}

// timeCall records one call's wall time, less the cost of reading the
// clock around it.
func (l *layer) timeCall(fn func()) {
	t := time.Now()
	fn()
	l.perCall = append(l.perCall, float64(time.Since(t))-clockCost)
}

// clockCost is the median wall time of timing an empty call: what
// timeCall subtracts so individually timed calls compare with batched
// ones. perLayer measures it before timing anything.
var clockCost float64

func measureClockCost() float64 {
	xs := make([]float64, 4096)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return median(xs)
}

// firstErr keeps the first error a timed call returned: a layer that
// fails while being timed would be measuring its error path, so the
// traced run fails instead.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if f.err == nil && err != nil {
		f.err = err
	}
}

// batch is how many calls of a sub-microsecond layer share one timing,
// so clock reads do not dominate what is measured.
const batch = 64

// timeBatched calls fn(i) for i in [0, n) and records the mean call
// time of every full batch of calls.
func (l *layer) timeBatched(n int, fn func(i int)) {
	for lo := 0; lo+batch <= n; lo += batch {
		t := time.Now()
		for i := lo; i < lo+batch; i++ {
			fn(i)
		}
		l.perCall = append(l.perCall, float64(time.Since(t))/batch)
	}
}

// sends is the recorded jobs' traffic, split up for the layer loops.
type sends struct {
	wires [][]byte            // every sent L2CAP frame
	frags [][]byte            // their HCI ACL fragments, marshaled
	pkts  []l2cap.Packet      // the frames parsed, payloads owned
	codes []l2cap.CommandCode // signaling command codes the mutator knows
}

func splitSends(recs []recorded) sends {
	var s sends
	mu := core.NewMutator(rand.New(rand.NewSource(1)), core.DefaultMaxGarbage)
	for _, r := range recs {
		for _, op := range r.ops {
			if op.Kind != host.TraceSend {
				continue
			}
			s.wires = append(s.wires, op.Data)
			for _, f := range hci.Fragment(1, op.Data, hci.DefaultACLBufferSize) {
				s.frags = append(s.frags, f.AppendTo(nil))
			}
			pkt, err := l2cap.ParsePacket(op.Data)
			if err != nil {
				continue
			}
			pkt.Payload = append([]byte(nil), pkt.Payload...)
			s.pkts = append(s.pkts, pkt)
			if !pkt.IsSignaling() {
				continue
			}
			frames, err := l2cap.AppendSignals(nil, pkt.Payload)
			if err != nil || len(frames) == 0 {
				continue
			}
			if _, _, err := mu.Mutate(1, frames[0].Code); err == nil {
				s.codes = append(s.codes, frames[0].Code)
			}
		}
	}
	return s
}

// perLayer is the traced run of w.
func perLayer(w workload, seed int64, window time.Duration, tmp string) ([]metric, int, int, error) {
	clockCost = measureClockCost()
	fs := farmSeed(seed, 0)
	r, err := runRep(w, fs, tmp)
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := w.matrix(fs)
	var recs []recorded
	for _, job := range traceJobs(r.report) {
		rec, err := record(cfg, job)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := checkFidelity(rec); err != nil {
			return nil, 0, 0, err
		}
		recs = append(recs, rec)
	}
	attempted := len(r.report.Jobs) + len(recs)
	s := splitSends(recs)
	if len(s.codes) == 0 || len(s.frags) < batch {
		return nil, 0, 0, fmt.Errorf("recorded traces carry too little signaling traffic to time")
	}

	// Every layer below gets an equal share of the window (the host
	// replay two), so a traced run lasts about as long as an untraced one.
	const sections = 24
	budget := window / sections
	var errs firstErr
	var out []metric

	// Host client: the recorded traces replayed op by op, each send and
	// drain and page timed, alternating with untimed replays whose wall
	// prices the timing itself.
	send := &layer{name: "host.send", unit: "ns", scale: time.Nanosecond}
	drain := &layer{name: "host.drain", unit: "ns", scale: time.Nanosecond}
	connect := &layer{name: "host.connect", unit: "us", scale: time.Microsecond}
	var tracedWall, plainWall []float64
	deadline := time.Now().Add(2 * budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, rec := range recs {
			plain, err := testbed.New(*rec.job.Spec, rec.opts)
			if err != nil {
				return nil, 0, 0, err
			}
			timed, err := testbed.New(*rec.job.Spec, rec.opts)
			if err != nil {
				return nil, 0, 0, err
			}
			m0 := mallocs()
			t := time.Now()
			replayOps(plain, rec.ops, nil, nil, nil)
			plainWall = append(plainWall, float64(time.Since(t)))
			if first {
				send.allocs += float64(mallocs() - m0)
			}
			t = time.Now()
			replayOps(timed, rec.ops, send, drain, connect)
			tracedWall = append(tracedWall, float64(time.Since(t)))
		}
		if first {
			send.allocs /= float64(len(s.wires))
		}
	}
	send.calls, drain.calls = len(send.perCall), len(drain.perCall)
	connect.calls = len(connect.perCall)
	overhead := sum(tracedWall) / sum(plainWall)

	// L2CAP codec over the recorded wire frames.
	encode := &layer{name: "l2cap.encode", unit: "ns", scale: time.Nanosecond}
	var scratch []byte
	encode.measure(budget, func() int {
		encode.timeBatched(len(s.pkts), func(i int) { scratch = s.pkts[i].AppendTo(scratch[:0]) })
		return len(s.pkts)
	})
	parse := &layer{name: "l2cap.parse", unit: "ns", scale: time.Nanosecond}
	var frames []l2cap.Frame
	parse.measure(budget, func() int {
		parse.timeBatched(len(s.wires), func(i int) {
			pkt, err := l2cap.ParsePacket(s.wires[i])
			if err == nil && pkt.IsSignaling() {
				frames, _ = l2cap.AppendSignals(frames[:0], pkt.Payload)
			}
		})
		return len(s.wires)
	})

	// HCI framing: fragment + marshal each frame, parse + reassemble
	// each fragment.
	fragment := &layer{name: "hci.fragment", unit: "ns", scale: time.Nanosecond}
	fragment.measure(budget, func() int {
		fragment.timeBatched(len(s.wires), func(i int) {
			for _, f := range hci.Fragment(1, s.wires[i], hci.DefaultACLBufferSize) {
				scratch = f.AppendTo(scratch[:0])
			}
		})
		return len(s.wires)
	})
	reassemble := &layer{name: "hci.reassemble", unit: "ns", scale: time.Nanosecond}
	var reasm hci.Reassembler
	reassemble.measure(budget, func() int {
		reassemble.timeBatched(len(s.frags), func(i int) {
			if acl, err := hci.ParseACL(s.frags[i]); err == nil {
				_, _, _ = reasm.Push(acl)
			}
		})
		return len(s.frags)
	})

	for i := range recs {
		recs[i].fragment()
	}

	// Radio medium and what hangs off it: carries between two stubs,
	// carries into the real target device, and the same with the
	// sniffer tapping the medium.
	carry := &layer{name: "radio.carry", unit: "ns", scale: time.Nanosecond}
	{
		m := radio.NewMedium(nil, radio.DefaultTiming())
		a, b := stubEndpoint{testbed.TesterAddr}, stubEndpoint{recs[0].job.Spec.Config.Addr}
		errs.keep(m.Register(a))
		errs.keep(m.Register(b))
		errs.keep(m.Page(a.addr, b.addr))
		carry.measure(budget, func() int {
			carry.timeBatched(len(s.frags), func(i int) { errs.keep(m.Carry(a.addr, b.addr, s.frags[i])) })
			return len(s.frags)
		})
	}
	intoDevice := &layer{name: "device.carry", unit: "ns", scale: time.Nanosecond}
	intoDevice.measure(budget, func() int {
		n, err := carryIntoDevices(recs, intoDevice, false)
		errs.keep(err)
		return n
	})
	sniffed := &layer{name: "metrics.carry", unit: "ns", scale: time.Nanosecond}
	sniffed.measure(budget, func() int {
		n, err := carryIntoDevices(recs, sniffed, true)
		errs.keep(err)
		return n
	})
	dispatch := diffLayer("device.dispatch", intoDevice, carry)
	sniff := diffLayer("metrics.sniff", sniffed, intoDevice)

	// Fuzzer core: the mutator over the recorded command codes, the
	// liveness probe against a healthy target, and the scan phase.
	mutate := &layer{name: "core.mutate", unit: "ns", scale: time.Nanosecond}
	mutate.measure(budget, func() int {
		mu := core.NewMutator(rand.New(rand.NewSource(recs[0].job.Seed)), core.DefaultMaxGarbage)
		mutate.timeBatched(len(s.codes), func(i int) { _, _, _ = mu.Mutate(uint8(i|1), s.codes[i]) })
		return len(s.codes)
	})
	probe := &layer{name: "core.probe", unit: "ns", scale: time.Nanosecond}
	scan := &layer{name: "core.scan", unit: "ms", scale: time.Millisecond}
	newRig := &layer{name: "testbed.new", unit: "us", scale: time.Microsecond}
	rigs := 0
	newRig.measure(budget, func() int {
		for _, rec := range recs {
			newRig.timeCall(func() {
				_, err := testbed.New(*rec.job.Spec, rec.opts)
				errs.keep(err)
			})
		}
		return len(recs)
	})
	probe.measure(budget, func() int {
		rec := recs[rigs%len(recs)]
		rigs++
		rig, err := testbed.New(*rec.job.Spec, rec.opts)
		if err == nil {
			err = rig.Client.Connect(rig.Device.Address())
		}
		if err != nil {
			errs.keep(err)
			return 0
		}
		const probes = 256
		for i := 0; i < probes; i++ {
			probe.timeCall(func() { core.ProbeLiveness(rig.Client, rig.Device.Address()) })
		}
		return probes
	})
	scan.measure(budget, func() int {
		for _, rec := range recs {
			rig, err := testbed.New(*rec.job.Spec, rec.opts)
			if err != nil {
				errs.keep(err)
				continue
			}
			scan.timeCall(func() {
				_, err := core.Scan(rig.Client, rig.Device.Address())
				errs.keep(err)
			})
		}
		return len(recs)
	})

	// The shared buffer pool, alone and with every CPU contending.
	getput := &layer{name: "pool.getput", unit: "ns", scale: time.Nanosecond}
	getput.measure(budget, func() int { return poolPass(getput, s.wires) })
	contended := &layer{name: "pool.getput_contended", unit: "ns", scale: time.Nanosecond}
	contended.measure(budget, func() int {
		var mu sync.Mutex
		var wg sync.WaitGroup
		total := 0
		for g := 0; g < nproc; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				own := &layer{}
				n := poolPass(own, s.wires)
				mu.Lock()
				contended.perCall = append(contended.perCall, own.perCall...)
				total += n
				mu.Unlock()
			}()
		}
		wg.Wait()
		return total
	})

	// Farm plumbing over the repetition's own job results.
	results := r.report.Jobs
	aggregate := &layer{name: "fleet.aggregate", unit: "us", scale: time.Microsecond}
	aggregate.measure(budget, func() int {
		agg, err := fleet.NewAggregator(cfg)
		if err != nil {
			errs.keep(err)
			return 0
		}
		for _, res := range results {
			aggregate.timeCall(func() { agg.Add(res) })
		}
		return len(results)
	})
	encodeWire := &layer{name: "wire.encode", unit: "us", scale: time.Microsecond}
	decodeWire := &layer{name: "wire.decode", unit: "us", scale: time.Microsecond}
	var buf bytes.Buffer
	encodeWire.measure(budget, func() int {
		buf.Reset()
		enc := wire.NewEncoder(&buf)
		for i := range results {
			encodeWire.timeCall(func() { errs.keep(enc.Encode(&results[i])) })
		}
		return len(results)
	})
	decodeWire.measure(budget, func() int {
		dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
		for range results {
			var res fleet.JobResult
			decodeWire.timeCall(func() { errs.keep(dec.Decode(&res)) })
		}
		return len(results)
	})
	journalWrite := &layer{name: "telemetry.journal_write", unit: "us", scale: time.Microsecond}
	journalWrite.measure(budget, func() int {
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			errs.keep(err)
			return 0
		}
		defer os.RemoveAll(dir)
		j, err := telemetry.OpenJournal(dir)
		if err != nil {
			errs.keep(err)
			return 0
		}
		defer j.Close()
		for i := range results {
			journalWrite.timeCall(func() { errs.keep(j.Write("job-done", &results[i])) })
		}
		return len(results)
	})
	put := &layer{name: "corpus.put", unit: "us", scale: time.Microsecond}
	put.measure(budget, func() int {
		dir, err := os.MkdirTemp(tmp, "corpus-")
		if err != nil {
			errs.keep(err)
			return 0
		}
		defer os.RemoveAll(dir)
		store, err := corpus.Open(filepath.Join(dir, "store"))
		if err != nil {
			errs.keep(err)
			return 0
		}
		for i, rec := range recs {
			e := corpus.Entry{
				Signature: core.Signature{PSM: l2cap.PSM(2*i + 1), Class: core.ErrConnectionFailed},
				Kind:      string(rec.job.Kind),
				Trace:     corpus.Trace{Seed: rec.job.Seed, Target: rec.job.Device, Ops: rec.ops},
			}
			put.timeCall(func() { errs.keep(store.Put(e)) })
		}
		return len(recs)
	})

	if errs.err != nil {
		return nil, 0, 0, errs.err
	}

	// Spans of the repetition's jobs.
	var exec, transport, dispatchWait []float64
	for _, res := range results {
		exec = append(exec, millis(res.Span.Execute()))
		transport = append(transport, millis(res.Span.Transport()))
		dispatchWait = append(dispatchWait, millis(res.Span.DispatchWait()))
	}

	// host.self: what a replayed send costs beyond the lower layers it
	// drives — framing the frame, carrying each fragment into the device
	// (and the device's responses back), the sniffer on every frame, and
	// reassembling each response. Times add up as means, not medians, so
	// the accounting uses mean per-call times throughout.
	// Frames per send come from the recorded sniffer summaries, which a
	// faithful replay reproduces.
	txFrames, rxFrames := 0, 0
	for _, rec := range recs {
		txFrames += rec.summary.Transmitted
		rxFrames += rec.summary.Received
	}
	sent := float64(len(s.wires))
	txPer, rxPer := float64(txFrames)/sent, float64(rxFrames)/sent
	lower := fragment.mean() + txPer*(intoDevice.mean()+sniff.mean()) + rxPer*reassemble.mean()
	self := send.mean() - lower
	fmt.Printf("# accounting (means): host.send %.0f ns = lower layers %.0f ns + host.self %.0f ns; %.2f tx and %.2f rx frames per send; trace_overhead %.3f\n",
		send.mean(), lower, self, txPer, rxPer, overhead)

	for _, l := range []*layer{mutate, probe, scan, send} {
		out = append(out, l.metrics()...)
	}
	out = append(out,
		drain.timeMetric(), drain.callsMetric(),
		connect.timeMetric(), connect.callsMetric(),
		metric{"host.self.ns", "ns", point(self)},
	)
	for _, l := range []*layer{encode, parse, fragment, reassemble, carry, dispatch, sniff, getput} {
		out = append(out, l.metrics()...)
	}
	out = append(out, contended.timeMetric())
	out = append(out, newRig.metrics()...)
	out = append(out,
		metric{"fleet.exec_ms", "ms", summarize(exec)},
		metric{"fleet.transport_ms", "ms", summarize(transport)},
		metric{"fleet.dispatch_wait_ms", "ms", summarize(dispatchWait)},
		metric{"fleet.jobs", "count", point(float64(len(results)))},
	)
	for _, l := range []*layer{aggregate, encodeWire, decodeWire, journalWrite, put} {
		out = append(out, l.metrics()...)
	}
	m := r.report.Metrics
	out = append(out,
		metric{"device.reject_ratio", "ratio", point(float64(m.Rejections) / float64(max(m.Received, 1)))},
		metric{"core.malformed_ratio", "ratio", point(float64(m.Malformed) / float64(max(m.Transmitted, 1)))},
		metric{"trace_overhead", "ratio", point(overhead)},
	)
	return out, attempted, r.report.Failed, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// diffLayer is the self cost of the layer whose calls "with" made on
// top of "without": the difference of their median per-call times and
// of their allocations per call.
func diffLayer(name string, with, without *layer) *layer {
	return &layer{
		name: name, unit: "ns", scale: time.Nanosecond,
		perCall:  []float64{median(with.perCall) - median(without.perCall)},
		calls:    with.calls,
		allocs:   with.allocs - without.allocs,
		meanDiff: with.mean() - without.mean(),
		diff:     true,
	}
}

// replayOps drives ops on rig as corpus.Replay does — pages, link drops,
// and each sent frame followed by a drain of the client's inbox — timing
// each send, drain and page into the given layers when they are non-nil.
func replayOps(rig *testbed.Rig, ops []host.TraceOp, send, drain, connect *layer) {
	addr := rig.Device.Address()
	for _, op := range ops {
		switch op.Kind {
		case host.TraceConnect:
			if connect == nil {
				_ = rig.Client.Connect(addr)
			} else {
				connect.timeCall(func() { _ = rig.Client.Connect(addr) })
			}
		case host.TraceDisconnect:
			rig.Client.Disconnect(addr)
		case host.TraceSend:
			if send == nil {
				_ = rig.Client.SendRaw(addr, op.Data)
				rig.Client.Drain()
				continue
			}
			send.timeCall(func() { _ = rig.Client.SendRaw(addr, op.Data) })
			drain.timeCall(func() { rig.Client.Drain() })
		}
	}
}

// carryIntoDevices replays every recorded trace at the radio level: a
// stub tester pages a real target device on a bare medium and carries
// the trace's fragments into it, each carry timed. The device answers
// through the medium as it would the client. With sniff, a trace
// sniffer taps the medium too.
func carryIntoDevices(recs []recorded, l *layer, sniff bool) (int, error) {
	calls := 0
	for _, rec := range recs {
		m := radio.NewMedium(nil, radio.DefaultTiming())
		tester := stubEndpoint{testbed.TesterAddr}
		if err := m.Register(tester); err != nil {
			return calls, err
		}
		dev, err := device.New(m, deviceConfig(*rec.job.Spec, rec.opts.DisableVulns))
		if err != nil {
			return calls, err
		}
		if sniff {
			metrics.NewSniffer(m, tester.addr)
		}
		addr := dev.Address()
		for i, op := range rec.ops {
			// Pages and carries fail once the recorded job crashed the
			// device, exactly as they did in the job itself.
			switch op.Kind {
			case host.TraceConnect:
				_ = m.Page(tester.addr, addr)
			case host.TraceDisconnect:
				m.Drop(tester.addr, addr)
			case host.TraceSend:
				if !m.Linked(tester.addr, addr) {
					continue
				}
				for _, frag := range rec.frags[i] {
					l.timeCall(func() { _ = m.Carry(tester.addr, addr, frag) })
					calls++
				}
			}
		}
	}
	return calls, nil
}

// poolPass borrows and releases one buffer per recorded frame length,
// timed in batches.
func poolPass(l *layer, wires [][]byte) int {
	l.timeBatched(len(wires), func(i int) { pool.Put(pool.Get(len(wires[i]))) })
	return len(wires)
}
