package sm

import (
	"fmt"

	"l2fuzz/internal/bt/l2cap"
)

// Job is one of the seven clusters of L2CAP states that share events,
// functions and actions (paper Table I).
type Job uint8

// The seven jobs.
const (
	// JobClosed covers the resting state.
	JobClosed Job = iota + 1
	// JobConnection covers connection establishment.
	JobConnection
	// JobCreation covers AMP channel creation.
	JobCreation
	// JobConfiguration covers all eight configuration states.
	JobConfiguration
	// JobDisconnection covers teardown.
	JobDisconnection
	// JobMove covers AMP channel moves.
	JobMove
	// JobOpen covers the data-transfer state.
	JobOpen
)

// NumJobs is the number of jobs in the paper's Table I.
const NumJobs = 7

// AllJobs returns the seven jobs in declaration order.
func AllJobs() []Job {
	return []Job{
		JobClosed, JobConnection, JobCreation, JobConfiguration,
		JobDisconnection, JobMove, JobOpen,
	}
}

func (j Job) String() string {
	switch j {
	case JobClosed:
		return "Closed"
	case JobConnection:
		return "Connection"
	case JobCreation:
		return "Creation"
	case JobConfiguration:
		return "Configuration"
	case JobDisconnection:
		return "Disconnection"
	case JobMove:
		return "Move"
	case JobOpen:
		return "Open"
	default:
		return fmt.Sprintf("Job(%d)", uint8(j))
	}
}

// jobOf is the Table I partition of the 19 states into 7 jobs.
var jobOf = map[State]Job{
	StateClosed: JobClosed,

	StateWaitConnect:    JobConnection,
	StateWaitConnectRsp: JobConnection,

	StateWaitCreate:    JobCreation,
	StateWaitCreateRsp: JobCreation,

	StateWaitConfig:       JobConfiguration,
	StateWaitConfigRsp:    JobConfiguration,
	StateWaitConfigReq:    JobConfiguration,
	StateWaitConfigReqRsp: JobConfiguration,
	StateWaitSendConfig:   JobConfiguration,
	StateWaitIndFinalRsp:  JobConfiguration,
	StateWaitFinalRsp:     JobConfiguration,
	StateWaitControlInd:   JobConfiguration,

	StateWaitDisconnect: JobDisconnection,

	StateWaitMove:        JobMove,
	StateWaitMoveRsp:     JobMove,
	StateWaitMoveConfirm: JobMove,
	StateWaitConfirmRsp:  JobMove,

	StateOpen: JobOpen,
}

// jobTable is jobOf indexed by state, derived once so JobOf does not
// hash; jobOf stays the single source.
var jobTable = func() (t [NumStates + 1]Job) {
	for s, j := range jobOf {
		t[s] = j
	}
	return t
}()

// JobOf returns the job that state belongs to per Table I (zero for an
// undefined state).
func JobOf(state State) Job {
	if int(state) >= len(jobTable) {
		return 0
	}
	return jobTable[state]
}

// StatesOf returns the states belonging to job, in declaration order.
func StatesOf(job Job) []State {
	var out []State
	for _, s := range AllStates() {
		if JobOf(s) == job {
			out = append(out, s)
		}
	}
	return out
}

// ValidCommands returns the signaling commands that are valid for a device
// whose channel is in a state of the given job — the paper's Table III.
// JobClosed and JobOpen accept all 26 commands; the intermediate jobs
// accept only the request/response pair(s) of their transaction. The
// returned slice is freshly allocated.
func ValidCommands(job Job) []l2cap.CommandCode {
	switch job {
	case JobClosed, JobOpen:
		return l2cap.AllCommandCodes()
	case JobConnection:
		return []l2cap.CommandCode{l2cap.CodeConnectionReq, l2cap.CodeConnectionRsp}
	case JobCreation:
		return []l2cap.CommandCode{l2cap.CodeCreateChannelReq, l2cap.CodeCreateChannelRsp}
	case JobConfiguration:
		return []l2cap.CommandCode{l2cap.CodeConfigurationReq, l2cap.CodeConfigurationRsp}
	case JobDisconnection:
		return []l2cap.CommandCode{l2cap.CodeDisconnectionReq, l2cap.CodeDisconnectionRsp}
	case JobMove:
		return []l2cap.CommandCode{
			l2cap.CodeMoveChannelReq, l2cap.CodeMoveChannelRsp,
			l2cap.CodeMoveChannelConfirmReq, l2cap.CodeMoveChannelConfirmRsp,
		}
	default:
		return nil
	}
}

// CommandValidInState reports whether a packet carrying code is valid for
// a device whose channel is in state, per the job-based Table III map.
func CommandValidInState(code l2cap.CommandCode, state State) bool {
	for _, c := range ValidCommands(JobOf(state)) {
		if c == code {
			return true
		}
	}
	return false
}
