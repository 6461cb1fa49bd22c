package metrics

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/core"
)

// samplePoints is the oracle for MPSeries/PRSeries: the point-list
// sampler the sniffer used when it kept one (X, Y) point per packet.
func samplePoints(points []SamplePoint, step int) []SamplePoint {
	if step < 1 {
		step = 1
	}
	var out []SamplePoint
	for i := step - 1; i < len(points); i += step {
		out = append(out, points[i])
	}
	if n := len(points); n > 0 && (len(out) == 0 || out[len(out)-1].X != points[n-1].X) {
		out = append(out, points[n-1])
	}
	return out
}

// oracleSteps are the sampling steps checked for a stream of n points:
// below one, word-boundary neighbours, the whole stream and beyond.
func oracleSteps(n int) []int {
	return []int{0, 1, 3, 10, 63, 64, 65, n, n + 1}
}

func checkSeries(t *testing.T, what string, got func(step int) []SamplePoint, points []SamplePoint) {
	t.Helper()
	for _, step := range oracleSteps(len(points)) {
		want := samplePoints(points, step)
		if g := got(step); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s, %d points, step %d: got %d points %v, want %d points %v",
				what, len(points), step, len(g), head(g), len(want), head(want))
		}
	}
}

// head trims a series for failure messages.
func head(pts []SamplePoint) []SamplePoint { return pts[:min(len(pts), 8)] }

func TestVerdictSeriesMatchesPointList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 4097} {
		for _, density := range []float64{0, 0.03, 0.5, 1} {
			var v verdicts
			var points []SamplePoint
			y := 0
			for i := 0; i < n; i++ {
				flagged := rng.Float64() < density
				if flagged {
					y++
				}
				v.push(flagged)
				points = append(points, SamplePoint{X: i + 1, Y: y})
			}
			checkSeries(t, "random stream", v.series, points)
		}
	}
}

func TestSnifferSeriesMatchesPointListOnD2Run(t *testing.T) {
	// A real L2Fuzz run against the measurement-grade Pixel 3. A second
	// tap, registered after the sniffer's, records the point lists the
	// sniffer used to keep: one (count, flagged) point after every
	// transmitted and every received packet.
	m := radio.NewMedium(nil, radio.DefaultTiming())
	entry, err := device.CatalogEntryByID("D2", true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, entry.Config)
	if err != nil {
		t.Fatal(err)
	}
	tester := radio.MustBDAddr("00:1B:DC:00:00:01")
	cl, err := host.NewClient(m, tester, "tester")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSniffer(m, tester)
	var mp, pr []SamplePoint
	m.AddTap(func(radio.TapFrame) {
		if s.transmitted > len(mp) {
			mp = append(mp, SamplePoint{X: s.transmitted, Y: s.malformed})
		}
		if s.received > len(pr) {
			pr = append(pr, SamplePoint{X: s.received, Y: s.rejections})
		}
	})
	cfg := core.DefaultConfig(3)
	cfg.MaxPackets = 5_000
	if _, err := core.New(cl, cfg).Run(d.Address()); err != nil {
		t.Fatal(err)
	}
	if len(mp) < 5_000 || len(pr) == 0 || mp[len(mp)-1].Y == 0 || pr[len(pr)-1].Y == 0 {
		t.Fatalf("run too thin to compare: %d tx points, %d rx points", len(mp), len(pr))
	}
	checkSeries(t, "MPSeries", s.MPSeries, mp)
	checkSeries(t, "PRSeries", s.PRSeries, pr)
}

// tapFrame wraps one signaling command in a single-fragment ACL frame
// as the sniffer's tap sees it.
func tapFrame(from, to radio.BDAddr, cmd l2cap.Command, tail []byte) radio.TapFrame {
	pkt := l2cap.SignalPacket(1, cmd, tail)
	acl := hci.ACLPacket{Handle: 1, Boundary: hci.BoundaryFirstFlushable, Data: pkt.AppendTo(nil)}
	return radio.TapFrame{From: from, To: to, Data: acl.AppendTo(nil)}
}

func TestSnifferTapDoesNotAllocate(t *testing.T) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	tester := radio.MustBDAddr("00:1B:DC:00:00:01")
	target := radio.MustBDAddr("F8:8F:CA:00:00:02")
	s := NewSniffer(m, tester)
	frames := map[string]radio.TapFrame{
		// A malformed request: garbage beyond the declared length.
		"tx": tapFrame(tester, target, &l2cap.ConfigurationReq{
			DCID: 0x0040, Options: []l2cap.ConfigOption{l2cap.MTUOption(672)},
		}, []byte{0xFF, 0xFF}),
		// A well-formed tester request BFuzz scrambled past decoding.
		"undecodable tx": {From: tester, To: target, Data: func() []byte {
			f := tapFrame(tester, target, &l2cap.EchoReq{}, nil)
			f.Data[len(f.Data)-2] = 0xFF // declared data length overruns
			return f.Data
		}()},
		"rx":             tapFrame(target, tester, &l2cap.EchoRsp{Data: []byte("ping")}, nil),
		"command reject": tapFrame(target, tester, &l2cap.CommandReject{Reason: l2cap.RejectNotUnderstood}, nil),
	}
	for name, f := range frames {
		for range 1000 { // warm-up: decoder cache, verdict words
			s.onFrame(f)
		}
		if allocs := testing.AllocsPerRun(1000, func() { s.onFrame(f) }); allocs != 0 {
			t.Errorf("%s frame: %v allocs per frame, want 0", name, allocs)
		}
	}
	if sum := s.Summary(); sum.Malformed == 0 || sum.Rejections == 0 || sum.InvalidTx == 0 {
		t.Fatalf("frames were not classified as intended: %+v", sum)
	}

	// The verdict bits grow one word per 64 packets, amortized.
	const n = 64 * 1024
	f := frames["tx"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		s.onFrame(f)
	}
	runtime.ReadMemStats(&after)
	if grew := after.Mallocs - before.Mallocs; grew*64 >= n {
		t.Errorf("%d allocations over %d tx frames, want under 1/64 per frame", grew, n)
	}
}
