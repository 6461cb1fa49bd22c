package metrics

import (
	"slices"

	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/sm"
)

// VisitedState is one state the target was inferred to have visited.
type VisitedState = sm.State

// shadowChan is one tracked channel: the shadow machine plus both
// endpoint names (the device-side CID from the response, the tester-side
// CID from the request).
type shadowChan struct {
	m         sm.Machine
	deviceCID l2cap.CID
	testerCID l2cap.CID
}

// StateInferencer replays shadow channel state machines over an observed
// command trace to estimate which L2CAP states the target occupied: the
// trace-analysis role PRETT plays in the paper's state-coverage
// measurement.
//
// The inference is conservative where it can be — commands are matched to
// channels by both endpoint CIDs — and optimistic only where the paper's
// methodology is too (a connect or create request is credited with the
// corresponding wait state even if the target refuses, because the target
// had to occupy it to decide).
type StateInferencer struct {
	// byDevice indexes shadows by the device-side CID.
	byDevice cidTable
	// byTester indexes shadows by the tester-side CID.
	byTester cidTable
	// pendingConn holds the shadows awaiting a connect response, at most
	// one per tester SCID. Targets answer connects in the same round, so
	// it rarely holds more than one and is scanned linearly.
	pendingConn []*shadowChan
	// visited accumulates states across all shadows, including closed
	// channels: bit s is set once state s was visited.
	visited uint32
	// spare holds retired shadows for newShadow to reuse. A shadow is
	// retired once no index or pending entry refers to it, and only
	// after its visits were absorbed.
	spare []*shadowChan
}

// NewStateInferencer returns an empty inferencer.
func NewStateInferencer() *StateInferencer {
	return &StateInferencer{}
}

// newShadow returns a shadow for a tester request opening testerCID,
// its machine fresh in CLOSED.
func (si *StateInferencer) newShadow(testerCID l2cap.CID) *shadowChan {
	var sc *shadowChan
	if n := len(si.spare); n > 0 {
		sc = si.spare[n-1]
		si.spare = si.spare[:n-1]
	} else {
		sc = new(shadowChan)
	}
	sc.m.Reset()
	sc.deviceCID, sc.testerCID = 0, testerCID
	return sc
}

// retire absorbs a shadow's visit history and keeps it for reuse. The
// caller has removed every reference to it.
func (si *StateInferencer) retire(sc *shadowChan) {
	si.absorb(sc)
	si.spare = append(si.spare, sc)
}

// drop removes a shadow from the indexes and retires it. A live shadow is
// bound in both indexes, at its own CIDs: every rebinding drops the
// previous holder first.
func (si *StateInferencer) drop(sc *shadowChan) {
	si.byDevice.set(sc.deviceCID, nil)
	si.byTester.set(sc.testerCID, nil)
	si.retire(sc)
}

// pendingIndex returns the position in pendingConn of the shadow awaiting
// a response for tester SCID scid, or -1.
func (si *StateInferencer) pendingIndex(scid l2cap.CID) int {
	for i, sc := range si.pendingConn {
		if sc.testerCID == scid {
			return i
		}
	}
	return -1
}

// addPending makes sc the shadow awaiting a response for its tester SCID,
// replacing any earlier one.
func (si *StateInferencer) addPending(sc *shadowChan) {
	if i := si.pendingIndex(sc.testerCID); i >= 0 {
		si.retire(si.pendingConn[i])
		si.pendingConn[i] = sc
		return
	}
	si.pendingConn = append(si.pendingConn, sc)
}

// ObserveTx consumes one tester-to-target command.
func (si *StateInferencer) ObserveTx(fr l2cap.Frame, cmd l2cap.Command) {
	switch c := cmd.(type) {
	case *l2cap.ConnectionReq:
		// The target enters WAIT_CONNECT while deciding.
		sc := si.newShadow(c.SCID)
		sc.m.Apply(sm.EvRecvConnectReq)
		si.addPending(sc)
		si.absorb(sc)
	case *l2cap.CreateChannelReq:
		sc := si.newShadow(c.SCID)
		sc.m.Apply(sm.EvRecvCreateReq)
		si.addPending(sc)
		si.absorb(sc)
	case *l2cap.ConfigurationReq:
		if sc := si.byDevice.get(c.DCID); sc != nil {
			ev := sm.EvRecvConfigReq
			if hasEFS(c.Options) {
				ev = sm.EvRecvConfigReqEFS
			}
			sc.m.Apply(ev)
			si.absorb(sc)
		}
	case *l2cap.ConfigurationRsp:
		// In a tester-sent response the SCID names the device-side
		// endpoint.
		if sc := si.byDevice.get(c.SCID); sc != nil {
			sc.m.Apply(sm.EvRecvConfigRsp)
			si.absorb(sc)
		}
	case *l2cap.DisconnectionReq:
		if sc := si.byDevice.get(c.DCID); sc != nil {
			if _, ok := sc.m.Apply(sm.EvRecvDisconnectReq); ok {
				// OPEN channels pass through WAIT_DISCONNECT.
				sc.m.Apply(sm.EvLocalAccept)
			}
			si.drop(sc)
		}
	case *l2cap.MoveChannelReq:
		if sc := si.byDevice.get(c.ICID); sc != nil {
			sc.m.Apply(sm.EvRecvMoveReq)
			si.absorb(sc)
		}
	case *l2cap.MoveChannelConfirmReq:
		if sc := si.byDevice.get(c.ICID); sc != nil {
			sc.m.Apply(sm.EvRecvMoveConfirmReq)
			si.absorb(sc)
		}
	default:
	}
}

// ObserveRx consumes one target-to-tester command.
func (si *StateInferencer) ObserveRx(fr l2cap.Frame, cmd l2cap.Command) {
	switch c := cmd.(type) {
	case *l2cap.ConnectionRsp:
		si.completeConnect(c.SCID, c.DCID, c.Result)
	case *l2cap.CreateChannelRsp:
		si.completeConnect(c.SCID, c.DCID, c.Result)
	case *l2cap.ConfigurationReq:
		// The device proposing its own configuration: the request's DCID
		// names the tester-side endpoint.
		if sc := si.byTester.get(c.DCID); sc != nil {
			sc.m.Apply(sm.EvLocalSendConfigReq)
			si.absorb(sc)
		}
	case *l2cap.ConfigurationRsp:
		// The SCID in a device-sent response names the tester-side
		// endpoint. A final (non-pending) response completes lockstep
		// configuration when the shadow is parked in WAIT_IND_FINAL_RSP.
		if sc := si.byTester.get(c.SCID); sc != nil {
			if c.Result != l2cap.ConfigPending && sc.m.State() == sm.StateWaitIndFinalRsp {
				sc.m.Apply(sm.EvLocalFinalRsp)
			}
			si.absorb(sc)
		}
	case *l2cap.MoveChannelRsp:
		if c.Result == l2cap.MoveResultSuccess {
			if sc := si.byDevice.get(c.ICID); sc != nil && sc.m.State() == sm.StateWaitMove {
				sc.m.Apply(sm.EvLocalAccept)
				si.absorb(sc)
			}
		}
	default:
	}
	_ = fr
}

// completeConnect resolves a pending connect/create against its response.
func (si *StateInferencer) completeConnect(scid, dcid l2cap.CID, result l2cap.ConnResult) {
	i := si.pendingIndex(scid)
	if i < 0 {
		return
	}
	sc := si.pendingConn[i]
	if result == l2cap.ConnResultPending {
		// The target is still deciding (authorization pending): the
		// channel stays in WAIT_CONNECT/WAIT_CREATE and the final
		// response is yet to come. Keep the shadow pending so that final
		// response still matches — dropping it here would orphan every
		// post-connect state on the channel.
		return
	}
	si.pendingConn = slices.Delete(si.pendingConn, i, i+1)
	if result != l2cap.ConnResultSuccess {
		si.retire(sc)
		return
	}
	// A reused device CID means the old channel is gone (link loss the
	// trace did not witness); retire the stale shadow first.
	if old := si.byDevice.get(dcid); old != nil {
		si.drop(old)
	}
	if old := si.byTester.get(scid); old != nil {
		si.drop(old)
	}
	sc.m.Apply(sm.EvLocalAccept) // → WAIT_CONFIG
	sc.deviceCID = dcid
	si.byDevice.set(dcid, sc)
	si.byTester.set(scid, sc)
	si.absorb(sc)
}

func (si *StateInferencer) absorb(sc *shadowChan) {
	si.visited |= sc.m.VisitedSet()
}

// Visited returns the inferred visited states in declaration order.
func (si *StateInferencer) Visited() []VisitedState {
	var out []VisitedState
	for _, s := range sm.AllStates() {
		if si.visited&(1<<s) != 0 {
			out = append(out, s)
		}
	}
	return out
}

func hasEFS(opts []l2cap.ConfigOption) bool {
	for _, o := range opts {
		if o.Type == l2cap.OptionExtendedFlowSpec {
			return true
		}
	}
	return false
}
