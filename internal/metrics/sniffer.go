package metrics

import (
	"math/bits"
	"sort"
	"time"

	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/record"
)

// SamplePoint is one point of the cumulative series behind Figures 8/9.
type SamplePoint struct {
	// X is the cumulative packet count on the axis (transmitted packets
	// for the MP series, received packets for the PR series).
	X int
	// Y is the cumulative count of interest (malformed or rejections).
	Y int
}

// Sniffer is a passive trace analyser tapping one radio medium from the
// tester's perspective.
type Sniffer struct {
	tester radio.BDAddr

	// reasm holds one reassembler per (from,to) direction: two per
	// link, scanned linearly.
	reasm []dirReasm

	// counters
	transmitted int
	malformed   int
	received    int
	rejections  int
	invalidTx   int

	startTime time.Duration
	lastTime  time.Duration
	started   bool

	// mpVerdicts/prVerdicts hold one verdict bit per transmitted and
	// received packet (malformed, rejection). The Figure 8/9 series are
	// prefix counts over them, rebuilt on demand by MPSeries/PRSeries.
	mpVerdicts verdicts
	prVerdicts verdicts

	// allocation tracking: channel endpoints observed as legitimately
	// allocated (device side and tester side), plus in-flight requests.
	allocated cidSet
	// pendingTx maps a tester request's signaling identifier to its
	// command code; 0 marks an identifier with no request in flight
	// (decoded frames always carry a defined, non-zero code).
	pendingTx [256]l2cap.CommandCode

	// Reused decode scratch: taps never nest, so one of each suffices.
	dec       l2cap.Decoder
	sigFrames []l2cap.Frame

	// rejectedByCode correlates received Command Reject packets back to
	// the command code of the tester request they answered (matched via
	// pendingTx by signaling identifier), indexed by code. Rejects whose
	// identifier matches no observed request land under code 0.
	rejectedByCode [256]int

	states *StateInferencer
}

// dirReasm is the reassembler of one direction of one link.
type dirReasm struct {
	from, to radio.BDAddr
	r        hci.Reassembler
}

// reassembler returns the reassembler for frames from → to, adding one
// on the direction's first frame. The pointer is valid until the next
// call.
func (s *Sniffer) reassembler(from, to radio.BDAddr) *hci.Reassembler {
	for i := range s.reasm {
		if d := &s.reasm[i]; d.from == from && d.to == to {
			return &d.r
		}
	}
	s.reasm = append(s.reasm, dirReasm{from: from, to: to})
	return &s.reasm[len(s.reasm)-1].r
}

// NewSniffer attaches a sniffer to the medium, observing traffic between
// the tester and everything else.
func NewSniffer(m *radio.Medium, tester radio.BDAddr) *Sniffer {
	s := &Sniffer{tester: tester, states: NewStateInferencer()}
	m.AddTap(s.onFrame)
	return s
}

// onFrame consumes one baseband frame from the tap.
func (s *Sniffer) onFrame(f radio.TapFrame) {
	if f.From != s.tester && f.To != s.tester {
		return // third-party traffic
	}
	if !s.started {
		s.started = true
		s.startTime = f.Time
	}
	s.lastTime = f.Time

	acl, err := hci.ParseACL(f.Data)
	if err != nil {
		return
	}
	frame, done, err := s.reassembler(f.From, f.To).Push(acl)
	if err != nil || !done {
		return
	}
	if f.From == s.tester {
		s.onTx(frame)
	} else {
		s.onRx(frame)
	}
}

// onTx counts one tester-to-target L2CAP frame and records its
// malformed verdict.
func (s *Sniffer) onTx(raw []byte) {
	s.transmitted++
	malformed := s.classifyTx(raw)
	if malformed {
		s.malformed++
	}
	s.mpVerdicts.push(malformed)
}

// classifyTx decodes one transmitted frame, feeds the state inferencer,
// and reports whether the packet is valid malformed.
func (s *Sniffer) classifyTx(raw []byte) bool {
	pkt, err := l2cap.ParsePacket(raw)
	if err != nil || !pkt.IsSignaling() {
		return false // data-plane traffic (e.g. SDP) is normal
	}
	frames, ok := l2cap.SplitSignals(s.sigFrames[:0], pkt.Payload)
	s.sigFrames = frames[:0]
	if !ok {
		s.invalidTx++
		return false
	}
	// One malformed verdict per packet at most, but every decodable
	// frame still feeds the state inferencer: BR/EDR packs several
	// commands into one C-frame, and a malformed first command must not
	// hide the later ones from the coverage accounting.
	verdict := false
	for _, fr := range frames {
		cmd, err := s.dec.Decode(fr)
		if err != nil {
			s.invalidTx++
			continue
		}
		s.pendingTx[fr.Identifier] = fr.Code
		s.states.ObserveTx(fr, cmd)
		if !verdict {
			verdict = s.isMalformed(fr, cmd)
		}
	}
	return verdict
}

// isMalformed implements the valid-malformed classification.
func (s *Sniffer) isMalformed(fr l2cap.Frame, cmd l2cap.Command) bool {
	if len(fr.Tail) > 0 {
		return true
	}
	core := cmd.CoreFields()
	if core.PSM != nil && l2cap.IsAbnormalPSM(*core.PSM) {
		return true
	}
	// A channel reference the trace never saw allocated is a core-field
	// anomaly — except on connection-style requests, whose SCID is the
	// sender allocating a fresh endpoint.
	switch cmd.Code() {
	case l2cap.CodeConnectionReq, l2cap.CodeCreateChannelReq,
		l2cap.CodeEchoReq, l2cap.CodeEchoRsp,
		l2cap.CodeInformationReq, l2cap.CodeInformationRsp:
		return false
	}
	for i := range core.NumCIDs() {
		if !s.allocated.has(*core.CID(i)) {
			return true
		}
	}
	return false
}

// onRx counts one target-to-tester L2CAP frame and records its
// rejection verdict.
func (s *Sniffer) onRx(raw []byte) {
	s.received++
	rejected := s.classifyRx(raw)
	if rejected {
		s.rejections++
	}
	s.prVerdicts.push(rejected)
}

// classifyRx decodes one received frame, feeds the allocation tracking
// and the state inferencer, and reports whether the packet is a
// rejection.
func (s *Sniffer) classifyRx(raw []byte) bool {
	pkt, err := l2cap.ParsePacket(raw)
	if err != nil || !pkt.IsSignaling() {
		return false
	}
	frames, ok := l2cap.SplitSignals(s.sigFrames[:0], pkt.Payload)
	s.sigFrames = frames[:0]
	if !ok {
		return false
	}
	// As on the Tx side: one rejection verdict per packet, every frame
	// observed.
	verdict := false
	for _, fr := range frames {
		cmd, err := s.dec.Decode(fr)
		if err != nil {
			continue
		}
		s.trackAllocations(cmd)
		s.states.ObserveRx(fr, cmd)
		if isRejection(cmd) {
			s.correlateReject(fr)
			verdict = true
		}
	}
	return verdict
}

// correlateReject attributes one received Command Reject to the tester
// request it answers, by signaling identifier.
func (s *Sniffer) correlateReject(fr l2cap.Frame) {
	code := s.pendingTx[fr.Identifier]
	s.pendingTx[fr.Identifier] = 0
	s.rejectedByCode[code]++ // code is 0 for unmatched rejects
}

// trackAllocations learns legitimate channel endpoints from responses.
func (s *Sniffer) trackAllocations(cmd l2cap.Command) {
	switch rsp := cmd.(type) {
	case *l2cap.ConnectionRsp:
		if rsp.Result == l2cap.ConnResultSuccess {
			s.allocated.add(rsp.DCID)
			s.allocated.add(rsp.SCID)
		}
	case *l2cap.CreateChannelRsp:
		if rsp.Result == l2cap.ConnResultSuccess {
			s.allocated.add(rsp.DCID)
			s.allocated.add(rsp.SCID)
		}
	}
}

// isRejection classifies a received command as a rejection packet. The
// paper counts Command Reject packets — the explicit "your packet was
// not accepted" signal a Wireshark filter isolates. Negative results in
// otherwise well-formed responses (PSM not supported, security block)
// are normal protocol conversation, not rejections of the packet itself.
func isRejection(cmd l2cap.Command) bool {
	_, ok := cmd.(*l2cap.CommandReject)
	return ok
}

// Summary is the measured outcome of one fuzzing run. The type lives
// in the dependency-free record package, so the farm's wire protocol,
// its journal and the journal analyzer carry and fold the same value
// the sniffer computes; Merge is defined there.
type Summary = record.Summary

// Summary computes the metrics over everything observed so far.
func (s *Sniffer) Summary() Summary {
	sum := Summary{
		Transmitted: s.transmitted,
		Malformed:   s.malformed,
		InvalidTx:   s.invalidTx,
		Received:    s.received,
		Rejections:  s.rejections,
	}
	if s.transmitted > 0 {
		sum.MPRatio = float64(s.malformed) / float64(s.transmitted)
	}
	if s.received > 0 {
		sum.PRRatio = float64(s.rejections) / float64(s.received)
	}
	sum.MutationEfficiency = sum.MPRatio * (1 - sum.PRRatio)
	sum.Span = s.lastTime - s.startTime
	if span := sum.Span.Seconds(); span > 0 {
		sum.PacketsPerSecond = float64(s.transmitted) / span
	}
	for _, st := range s.states.Visited() {
		sum.States = append(sum.States, st.String())
	}
	sort.Strings(sum.States)
	sum.StatesCovered = len(sum.States)
	return sum
}

// RejectionsByCode returns, per tester command code, how many received
// Command Reject frames answered a request of that code (matched by
// signaling identifier). Rejects whose identifier matched no observed
// request are keyed under code 0. The attribution is per frame, so a
// packet packing several Command Rejects contributes each of them and
// the totals can exceed Summary.Rejections, which stays one verdict
// per packet.
func (s *Sniffer) RejectionsByCode() map[l2cap.CommandCode]int {
	out := make(map[l2cap.CommandCode]int)
	for code, n := range s.rejectedByCode {
		if n > 0 {
			out[l2cap.CommandCode(code)] = n
		}
	}
	return out
}

// MPSeries returns the cumulative malformed-vs-transmitted series sampled
// every step packets (Figure 8). A step below 1 returns every point.
func (s *Sniffer) MPSeries(step int) []SamplePoint { return s.mpVerdicts.series(step) }

// PRSeries returns the cumulative rejections-vs-received series sampled
// every step packets (Figure 9).
func (s *Sniffer) PRSeries(step int) []SamplePoint { return s.prVerdicts.series(step) }

// StatesVisited returns the trace-inferred visited states.
func (s *Sniffer) StatesVisited() []VisitedState { return s.states.Visited() }

// verdicts is a growable bit string with one bit per packet, in packet
// order. A cumulative series point (X, Y) is X packets with Y of them
// flagged, so the bits alone hold a whole Figure 8/9 series at one bit
// per packet; series rebuilds the sampled points from prefix counts.
type verdicts struct {
	words []uint64
	n     int
}

// push appends the verdict of the next packet.
func (v *verdicts) push(flagged bool) {
	if v.n%64 == 0 {
		v.words = append(v.words, 0)
	}
	if flagged {
		v.words[v.n/64] |= 1 << (v.n % 64)
	}
	v.n++
}

// series returns the point after every step-th packet, plus the final
// point when the count is not a multiple of step; a step below 1 returns
// every point. A stream with no packets has no points (nil).
func (v *verdicts) series(step int) []SamplePoint {
	if step < 1 {
		step = 1
	}
	var out []SamplePoint
	// y counts the flagged packets among the first 64*word.
	y, word := 0, 0
	point := func(i int) SamplePoint {
		for ; word < i/64; word++ {
			y += bits.OnesCount64(v.words[word])
		}
		// Bits 0..i%64 of the word; at i%64 == 63 the shift yields 0 and
		// the mask wraps to all ones.
		mask := uint64(1)<<(i%64+1) - 1
		return SamplePoint{X: i + 1, Y: y + bits.OnesCount64(v.words[word]&mask)}
	}
	for i := step - 1; i < v.n; i += step {
		out = append(out, point(i))
	}
	if v.n > 0 && (len(out) == 0 || out[len(out)-1].X != v.n) {
		out = append(out, point(v.n-1))
	}
	return out
}
