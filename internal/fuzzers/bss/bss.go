// Package bss models the Bluetooth Stack Smasher (BSS 0.6, 2006) as the
// paper characterises it (§IV-C, §VI): "it simply mutates only one field
// of a packet, which is insufficient to trigger vulnerabilities in the
// latest Bluetooth devices". Its traffic is echo/information floods with
// a single application field varied — never a valid *malformed* packet by
// the paper's metric (0% MP ratio) and never rejected (0% PR ratio) —
// built against the Bluetooth 2.1-era command set, which limits it to
// three reachable states.
package bss

import (
	"fmt"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/fuzzers"
)

// ThinkTime reproduces BSS's measured pace of 1.95 packets/s.
const ThinkTime = 430 * time.Millisecond

// Fuzzer is a BSS-like single-field mutator.
type Fuzzer struct {
	cl  *host.Client
	rng *rand.Rand

	// The commands Run sends, refilled in place per send (the client
	// marshals each before the next is built), and the echo payload
	// scratch.
	conn     l2cap.ConnectionReq
	info     l2cap.InformationReq
	echo     l2cap.EchoReq
	echoData [maxEchoData]byte
}

// maxEchoData bounds the varied echo payload: lengths 0..maxEchoData-1.
const maxEchoData = 44

var _ fuzzers.Fuzzer = (*Fuzzer)(nil)

// New builds the fuzzer over a tester client.
func New(cl *host.Client, seed int64) *Fuzzer {
	return &Fuzzer{cl: cl, rng: rand.New(rand.NewSource(seed))}
}

// Name implements fuzzers.Fuzzer.
func (f *Fuzzer) Name() string { return "BSS" }

// Run floods the target with one-field-varied normal packets: echo
// requests of varying payload, information requests of varying type, and
// an occasional plain connection request (the BT 2.1 command set).
func (f *Fuzzer) Run(target radio.BDAddr, maxPackets int) (res fuzzers.Result, err error) {
	if err := f.cl.Connect(target); err != nil {
		return fuzzers.Result{}, fmt.Errorf("bss: %w", err)
	}
	start := f.cl.Clock().Now()
	defer func() { res.Elapsed = f.cl.Clock().Now() - start }()
	sent := 0
	send := func(cmd l2cap.Command) bool {
		if _, err := f.cl.SendCommand(target, cmd, nil); err != nil {
			return false
		}
		f.cl.Clock().Advance(ThinkTime)
		sent++
		f.cl.Drain()
		return true
	}
loop:
	for sent < maxPackets {
		switch sent % 8 {
		case 7:
			// The occasional plain connect exercises the connection path;
			// the channel is left unconfigured and dies with the link.
			f.conn = l2cap.ConnectionReq{PSM: l2cap.PSMSDP, SCID: f.cl.NextSourceCID()}
			if !send(&f.conn) {
				break loop
			}
			f.cl.Disconnect(target)
			if err := f.cl.Connect(target); err != nil {
				res.PacketsSent = sent
				return res, nil
			}
			res.Cycles++
		case 3:
			// Information request with the type field varied.
			f.info.InfoType = l2cap.InfoType(f.rng.Intn(4))
			if !send(&f.info) {
				break loop
			}
		default:
			// l2ping-style echo with the data field varied.
			data := f.echoData[:f.rng.Intn(maxEchoData)]
			for i := range data {
				data[i] = byte(f.rng.Intn(256))
			}
			f.echo.Data = data
			if !send(&f.echo) {
				break loop
			}
		}
	}
	res.PacketsSent = sent
	return res, nil
}
