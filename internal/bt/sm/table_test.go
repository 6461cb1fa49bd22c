package sm

import (
	"slices"
	"testing"
)

// TestDenseTablesMatchLiterals checks Lookup, ValidEvents and JobOf
// against the transitions and jobOf literals they are derived from, for
// every state and event byte value (undefined ones included).
func TestDenseTablesMatchLiterals(t *testing.T) {
	for s := 0; s < 256; s++ {
		state := State(s)
		var wantValid []Event
		for e := 0; e < 256; e++ {
			event := Event(e)
			want, wantOK := transitions[state][event]
			got, ok := Lookup(state, event)
			if got != want || ok != wantOK {
				t.Errorf("Lookup(%v, %v) = %+v, %v; want %+v, %v", state, event, got, ok, want, wantOK)
			}
			if wantOK {
				wantValid = append(wantValid, event)
			}
		}
		if got := ValidEvents(state); !slices.Equal(got, wantValid) {
			t.Errorf("ValidEvents(%v) = %v, want %v", state, got, wantValid)
		}
		if got, want := JobOf(state), jobOf[state]; got != want {
			t.Errorf("JobOf(%v) = %v, want %v", state, got, want)
		}
	}
}

// TestVisitedSetMatchesVisited checks the bit-set view of a machine's
// history against the ordered list after every step.
func TestVisitedSetMatchesVisited(t *testing.T) {
	m := NewMachine()
	steps := []Event{EvRecvConnectReq, EvLocalAccept, EvRecvConfigReq, EvLocalSendConfigReq, EvRecvConfigRsp, EvRecvDisconnectReq, EvLocalAccept}
	for i := 0; i <= len(steps); i++ {
		var want uint32
		for _, s := range m.Visited() {
			want |= 1 << s
		}
		if got := m.VisitedSet(); got != want {
			t.Fatalf("after %d steps VisitedSet() = %#x, want %#x from Visited() %v", i, got, want, m.Visited())
		}
		if i < len(steps) {
			m.Apply(steps[i])
		}
	}
	m.Force(StateWaitMove)
	if m.VisitedSet()&(1<<StateWaitMove) == 0 {
		t.Error("Force did not mark the forced state visited")
	}
}
