package radio

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Endpoint is a radio participant: a virtual HCI controller.
type Endpoint interface {
	// Address returns the endpoint's BD_ADDR.
	Address() BDAddr
	// ReceiveFrame delivers a baseband frame from a peer. Implementations
	// must not retain data.
	ReceiveFrame(from BDAddr, data []byte)
	// Connectable reports whether the endpoint currently accepts new
	// baseband (page) connections.
	Connectable() bool
	// Discoverable returns inquiry-response metadata; ok is false when
	// the endpoint does not answer inquiries.
	Discoverable() (InquiryResult, bool)
}

// InquiryResult is the metadata an endpoint reveals during inquiry: the
// information L2Fuzz's target-scanning phase collects.
type InquiryResult struct {
	// Addr is the responding device's BD_ADDR.
	Addr BDAddr
	// Name is the human-readable device name (remote name request).
	Name string
	// ClassOfDevice is the 24-bit class-of-device code.
	ClassOfDevice uint32
}

// TapDirection distinguishes the two directions a tap observes.
type TapDirection uint8

const (
	// DirTx is a frame leaving the tap owner's perspective device.
	DirTx TapDirection = iota + 1
	// DirRx is a frame arriving at the tap owner's perspective device.
	DirRx
)

// TapFrame is one captured frame: what a Wireshark capture on the
// paper's test machine would record.
type TapFrame struct {
	// Time is the simulated capture timestamp.
	Time time.Duration
	// From and To are the link endpoints.
	From, To BDAddr
	// Data is the baseband frame payload (an HCI ACL fragment).
	Data []byte
}

// Tap observes every frame the medium carries.
type Tap func(TapFrame)

// Errors returned by the medium.
var (
	// ErrUnknownAddress indicates no endpoint registered under the address.
	ErrUnknownAddress = errors.New("radio: unknown address")
	// ErrNotConnected indicates data sent on a link that was never paged.
	ErrNotConnected = errors.New("radio: no baseband link between endpoints")
	// ErrNotConnectable indicates the target rejects page requests.
	ErrNotConnectable = errors.New("radio: endpoint not connectable")
	// ErrDuplicateAddress indicates two endpoints claiming one address.
	ErrDuplicateAddress = errors.New("radio: address already registered")
)

// Timing models the cost of carrying one frame. The defaults approximate
// a BR/EDR ACL link: a fixed slot overhead plus a per-byte cost at
// roughly 2 Mb/s (EDR 2-DH rate).
type Timing struct {
	// PerFrame is the fixed cost per carried frame.
	PerFrame time.Duration
	// PerByte is the additional cost per payload byte.
	PerByte time.Duration
	// PageDelay is the cost of establishing a baseband link.
	PageDelay time.Duration
	// InquiryDelay is the cost of one inquiry sweep.
	InquiryDelay time.Duration
}

// DefaultTiming returns the BR/EDR-flavoured timing model.
func DefaultTiming() Timing {
	return Timing{
		PerFrame:     625 * time.Microsecond, // one TX slot
		PerByte:      4 * time.Microsecond,   // ≈2 Mb/s
		PageDelay:    640 * time.Millisecond, // typical page latency
		InquiryDelay: 2560 * time.Millisecond,
	}
}

// Medium is the in-memory radio. It is not safe for concurrent use: the
// simulation is single-threaded by design (see package doc).
//
// A medium holds a handful of endpoints (one tester and its targets) and
// fewer links, so both live in small slices scanned linearly: every
// carried frame resolves its endpoint and link by comparing a few
// addresses, with no hashing on the packet path.
type Medium struct {
	clock     *Clock
	timing    Timing
	endpoints []registered
	links     []link
	taps      []Tap

	// FaultEveryN, when positive, drops every Nth carried frame —
	// deterministic loss injection for robustness tests. Counting starts
	// at 1; the Nth, 2Nth, ... frames are dropped.
	FaultEveryN int
	carried     int
}

// registered is one endpoint on the medium under its address.
type registered struct {
	addr BDAddr
	ep   Endpoint
}

// link is one baseband link. Links are undirected: a and b are the
// endpoints in page order.
type link struct{ a, b BDAddr }

// joins reports whether the link connects x and y, in either order.
func (l link) joins(x, y BDAddr) bool {
	return (l.a == x && l.b == y) || (l.a == y && l.b == x)
}

// linkIndex returns the position of the link between x and y, or -1.
func (m *Medium) linkIndex(x, y BDAddr) int {
	for i, l := range m.links {
		if l.joins(x, y) {
			return i
		}
	}
	return -1
}

// NewMedium creates a medium over the given clock. A nil clock gets a
// private one.
func NewMedium(clock *Clock, timing Timing) *Medium {
	if clock == nil {
		clock = &Clock{}
	}
	return &Medium{clock: clock, timing: timing}
}

// endpoint returns the endpoint registered at addr, or nil.
func (m *Medium) endpoint(addr BDAddr) Endpoint {
	for i := range m.endpoints {
		if m.endpoints[i].addr == addr {
			return m.endpoints[i].ep
		}
	}
	return nil
}

// Clock exposes the medium's clock.
func (m *Medium) Clock() *Clock { return m.clock }

// Register adds an endpoint to the medium.
func (m *Medium) Register(ep Endpoint) error {
	addr := ep.Address()
	if m.endpoint(addr) != nil {
		return fmt.Errorf("%w: %v", ErrDuplicateAddress, addr)
	}
	m.endpoints = append(m.endpoints, registered{addr: addr, ep: ep})
	return nil
}

// Unregister removes the endpoint registered at addr, tearing down its
// links and notifying the surviving peers. Removing an absent address is
// a no-op.
func (m *Medium) Unregister(addr BDAddr) {
	for i := range m.endpoints {
		if m.endpoints[i].addr == addr {
			m.endpoints = slices.Delete(m.endpoints, i, i+1)
			break
		}
	}
	// Tear every link down before notifying anyone: an observer may
	// call back into the medium.
	var peers []BDAddr
	kept := m.links[:0]
	for _, l := range m.links {
		switch addr {
		case l.a:
			peers = append(peers, l.b)
		case l.b:
			peers = append(peers, l.a)
		default:
			kept = append(kept, l)
		}
	}
	m.links = kept
	for _, peer := range peers {
		m.notifyLinkDown(peer, addr)
	}
}

// AddTap registers a capture observer. Taps see every frame carried,
// including dropped ones (a sniffer hears the air, not the receiver).
func (m *Medium) AddTap(t Tap) { m.taps = append(m.taps, t) }

// Inquiry performs an inquiry sweep from the given origin, returning
// every discoverable endpoint except the origin itself, in registration-
// independent (address-sorted) order for determinism.
func (m *Medium) Inquiry(origin BDAddr) []InquiryResult {
	m.clock.Advance(m.timing.InquiryDelay)
	var results []InquiryResult
	for _, reg := range m.endpoints {
		if reg.addr == origin {
			continue
		}
		if r, ok := reg.ep.Discoverable(); ok {
			results = append(results, r)
		}
	}
	sortInquiryResults(results)
	return results
}

func sortInquiryResults(rs []InquiryResult) {
	// Insertion sort by address: n is tiny (≤ device catalog size).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && lessAddr(rs[j].Addr, rs[j-1].Addr); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func lessAddr(x, y BDAddr) bool {
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// Page establishes a baseband link from initiator to target.
func (m *Medium) Page(initiator, target BDAddr) error {
	ep := m.endpoint(target)
	if ep == nil {
		return fmt.Errorf("%w: %v", ErrUnknownAddress, target)
	}
	if m.endpoint(initiator) == nil {
		return fmt.Errorf("%w: %v", ErrUnknownAddress, initiator)
	}
	if !ep.Connectable() {
		return fmt.Errorf("%w: %v", ErrNotConnectable, target)
	}
	m.clock.Advance(m.timing.PageDelay)
	if m.linkIndex(initiator, target) < 0 {
		m.links = append(m.links, link{a: initiator, b: target})
	}
	return nil
}

// Linked reports whether a baseband link exists between the endpoints.
func (m *Medium) Linked(x, y BDAddr) bool {
	return m.linkIndex(x, y) >= 0
}

// LinkObserver is implemented by endpoints that want to hear about
// baseband link loss (a real controller raises a Disconnection Complete
// event to its host).
type LinkObserver interface {
	// LinkDown reports that the link to peer no longer exists.
	LinkDown(peer BDAddr)
}

// Drop tears down the baseband link between the endpoints, if any, and
// notifies both sides.
func (m *Medium) Drop(x, y BDAddr) {
	i := m.linkIndex(x, y)
	if i < 0 {
		return
	}
	m.links = slices.Delete(m.links, i, i+1)
	m.notifyLinkDown(x, y)
	m.notifyLinkDown(y, x)
}

func (m *Medium) notifyLinkDown(at, peer BDAddr) {
	if ep := m.endpoint(at); ep != nil {
		if obs, ok := ep.(LinkObserver); ok {
			obs.LinkDown(peer)
		}
	}
}

// Carry transmits one baseband frame across an established link,
// advancing the clock and notifying taps. Frames on dead links or to
// vanished endpoints fail; deterministically-injected faults silently
// drop the frame after the taps saw it.
func (m *Medium) Carry(from, to BDAddr, data []byte) error {
	ep := m.endpoint(to)
	if ep == nil {
		return fmt.Errorf("%w: %v", ErrUnknownAddress, to)
	}
	if !m.Linked(from, to) {
		return fmt.Errorf("%w: %v ↔ %v", ErrNotConnected, from, to)
	}
	m.clock.Advance(m.timing.PerFrame + time.Duration(len(data))*m.timing.PerByte)

	frame := TapFrame{Time: m.clock.Now(), From: from, To: to, Data: data}
	for _, t := range m.taps {
		t(frame)
	}

	m.carried++
	if m.FaultEveryN > 0 && m.carried%m.FaultEveryN == 0 {
		return nil // dropped in flight
	}
	ep.ReceiveFrame(from, data)
	return nil
}
