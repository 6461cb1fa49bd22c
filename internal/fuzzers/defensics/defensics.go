// Package defensics models the Synopsys Defensics Bluetooth fuzzer as
// the paper characterises it (§IV-C, §VI): a template-based test-suite
// runner whose traffic is almost entirely well-formed — "most of the
// test packets are normal packets; thus, instead of yielding unexpected
// behaviors, it often results in normal communication" — testing one
// packet per state at a slow, fixed pace (3.37 packets per second).
package defensics

import (
	"fmt"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/fuzzers"
)

// ThinkTime reproduces Defensics's measured pace of 3.37 packets/s.
const ThinkTime = 295 * time.Millisecond

// anomalyEvery makes one packet in this many an anomalized test packet,
// landing the malformed-packet ratio near the paper's 2.38%.
const anomalyEvery = 30

// Fuzzer is a Defensics-like template fuzzer.
type Fuzzer struct {
	cl  *host.Client
	rng *rand.Rand

	// The template's commands, refilled in place per send: the client
	// marshals each before the next is built.
	conn   l2cap.ConnectionReq
	disc   l2cap.DisconnectionReq
	cfgReq l2cap.ConfigurationReq
	cfgRsp l2cap.ConfigurationRsp
	echo   l2cap.EchoReq
	info   l2cap.InformationReq
}

// The constant parts of the templates, shared read-only.
var (
	garbageTail = []byte{0xFF, 0xFF, 0xFF, 0xFF}
	mtuOptions  = []l2cap.ConfigOption{l2cap.MTUOption(672)}
	echoData    = []byte("defensics")
)

var _ fuzzers.Fuzzer = (*Fuzzer)(nil)

// New builds the fuzzer over a tester client.
func New(cl *host.Client, seed int64) *Fuzzer {
	return &Fuzzer{cl: cl, rng: rand.New(rand.NewSource(seed))}
}

// Name implements fuzzers.Fuzzer.
func (f *Fuzzer) Name() string { return "Defensics" }

// Run executes valid test-case templates against the target. Each case
// performs a full connect-configure-open-disconnect conversation with at
// most one anomalized packet inside, exactly one test packet per state.
func (f *Fuzzer) Run(target radio.BDAddr, maxPackets int) (res fuzzers.Result, err error) {
	if err := f.cl.Connect(target); err != nil {
		return fuzzers.Result{}, fmt.Errorf("defensics: %w", err)
	}
	start := f.cl.Clock().Now()
	defer func() { res.Elapsed = f.cl.Clock().Now() - start }()
	sent := 0
	deviceReqs := 0
	// send transmits one packet and tallies any configuration request the
	// device produces in response, so the template can answer it later.
	send := func(cmd l2cap.Command, tail []byte) bool {
		if _, err := f.cl.SendCommand(target, cmd, tail); err != nil {
			return false
		}
		f.cl.Clock().Advance(ThinkTime)
		sent++
		for _, rsp := range f.cl.DrainCommands() {
			if _, ok := rsp.(*l2cap.ConfigurationReq); ok {
				deviceReqs++
			}
		}
		return true
	}

	for sent < maxPackets {
		// One template case: valid conversation with one (rare) anomaly.
		// Roughly one packet in anomalyEvery is anomalized: a case is
		// about six packets, so every (anomalyEvery/6)th case carries one.
		anomalize := res.Cycles%(anomalyEvery/6) == 0
		scid := f.cl.NextSourceCID()

		connReq := &f.conn
		*connReq = l2cap.ConnectionReq{PSM: l2cap.PSMSDP, SCID: scid}
		var connTail []byte
		var badCIDProbe bool
		if anomalize {
			switch f.rng.Intn(10) {
			case 0, 1, 2, 3: // garbage-tail anomaly
				connTail = garbageTail
			case 4, 5, 6: // abnormal-PSM anomaly (refused by the target)
				connReq.PSM = 0x0100 + l2cap.PSM(f.rng.Intn(0x100))
			case 7, 8: // boundary SCID anomaly (reserved range)
				connReq.SCID = l2cap.CID(f.rng.Intn(0x40))
			default: // unknown-CID disconnect probe (Command Reject)
				badCIDProbe = true
			}
		}
		if badCIDProbe {
			f.disc = l2cap.DisconnectionReq{DCID: l2cap.CID(0x2000 + f.rng.Intn(0x1000)), SCID: scid}
			if _, err := f.cl.SendCommand(target, &f.disc, nil); err != nil {
				break
			}
			f.cl.Clock().Advance(ThinkTime)
			sent++
			f.cl.Drain()
		}
		f.cl.Drain()
		if _, err := f.cl.SendCommand(target, connReq, connTail); err != nil {
			break
		}
		f.cl.Clock().Advance(ThinkTime)
		sent++

		// Read the verdict; on success walk the full valid handshake.
		var dcid l2cap.CID
		accepted := false
		deviceReqs = 0
		for _, cmd := range f.cl.DrainCommands() {
			switch rsp := cmd.(type) {
			case *l2cap.ConnectionRsp:
				if rsp.SCID == connReq.SCID && rsp.Result == l2cap.ConnResultSuccess {
					dcid = rsp.DCID
					accepted = true
				}
			case *l2cap.ConfigurationReq:
				deviceReqs++
			}
		}
		if accepted {
			f.cfgReq = l2cap.ConfigurationReq{DCID: dcid, Options: mtuOptions}
			if !send(&f.cfgReq, nil) {
				break
			}
			for answered := 0; answered < deviceReqs; answered++ {
				f.cfgRsp = l2cap.ConfigurationRsp{SCID: dcid, Result: l2cap.ConfigSuccess}
				if !send(&f.cfgRsp, nil) {
					break
				}
			}
			// One probe per state in the open phase.
			f.echo.Data = echoData
			if !send(&f.echo, nil) {
				break
			}
			f.info.InfoType = l2cap.InfoTypeExtendedFeatures
			if !send(&f.info, nil) {
				break
			}
			f.disc = l2cap.DisconnectionReq{DCID: dcid, SCID: scid}
			if !send(&f.disc, nil) {
				break
			}
		}
		res.Cycles++
	}
	res.PacketsSent = sent
	return res, nil
}
