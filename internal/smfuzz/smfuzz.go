// Package smfuzz fuzzes the target's L2CAP channel state machine
// directly: a model-guided walk over the specification's transition
// table (the paper's Table II, as encoded in internal/bt/sm).
//
// Where the L2Fuzz core steers the target into a state and then mutates
// packets in place, this engine makes the state machine itself the
// search space. A shadow sm.Machine mirrors what the specification says
// the target's channel should be doing; each step either
//
//   - follows the model: pick an event the current state accepts, send
//     the signaling command that raises it, and advance the shadow —
//     walking the machine through its legal regions; or
//   - defects from it: send a command the current state must reject, or
//     a command with endpoint fields the target never allocated.
//
// The payoff is the combination the table walk reaches on its own: a
// ConnectionReq on a real PSM parks the target's channel in a
// configuration job, and the next ConfigurationReq — endpoint scrambled
// to a CID the target never allocated, garbage appended — is exactly
// the shape of the BlueDroid CCB null dereference the paper's §IV-E
// reports. No packet mutation schedule needs to get lucky twice; the
// machine walk supplies the stateful half of the trigger every cycle.
//
// Liveness is probed with the L2CAP echo, as the paper's
// vulnerability-detecting phase does.
package smfuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// Config parameterises a run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// MaxGarbage bounds appended garbage tails.
	MaxGarbage int
	// MaxPackets caps the whole run.
	MaxPackets int
	// PingEvery probes liveness after every PingEvery commands.
	PingEvery int
	// ThinkTime is charged to the simulated clock per command.
	ThinkTime time.Duration
}

// DefaultConfig returns L2Fuzz-flavoured defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		MaxGarbage: 16,
		MaxPackets: 50_000,
		PingEvery:  8,
		ThinkTime:  450 * time.Microsecond,
	}
}

// Report is the outcome of one run.
type Report struct {
	// Found reports whether the target died.
	Found bool
	// PacketsSent counts transmitted commands, probes included.
	PacketsSent int
	// Elapsed is the simulated run time.
	Elapsed time.Duration
	// FinalState is the shadow machine's state at detection (or at budget
	// exhaustion): where in the walk the target died.
	FinalState sm.State
	// StatesVisited lists the distinct states the shadow machine
	// occupied, in first-visit order: the walk's coverage.
	StatesVisited []sm.State
	// LastCommand describes the command sent just before detection.
	LastCommand string
	// PSM is the port of the walk's most recently opened channel: the
	// port the finding signature attributes.
	PSM l2cap.PSM
	// Trace is the recorded client operation sequence through detection,
	// populated when Found and a host.TraceRecorder is attached to the
	// client. The snapshot is taken at detection, so a replayed trace
	// ends on the killing command.
	Trace []host.TraceOp
	// TraceTruncated reports the trace outgrew the recorder's limit.
	TraceTruncated bool
}

// ErrNoServices indicates the target advertised no L2CAP services to
// drive connections against.
var ErrNoServices = errors.New("smfuzz: target advertises no services")

// recvCommand maps each machine event raised by an incoming command to
// that command's code: the inverse of sm.RecvEvent, restricted to the
// plain (non-lockstep) mapping since the simulated stacks carry no
// extended flow specification option. Local events have no entry — the
// tester cannot raise a target-internal completion from the wire.
var recvCommand = buildRecvCommand()

func buildRecvCommand() map[sm.Event]l2cap.CommandCode {
	out := make(map[sm.Event]l2cap.CommandCode)
	for _, code := range l2cap.AllCommandCodes() {
		if ev, ok := sm.RecvEvent(code, false); ok {
			if _, seen := out[ev]; !seen {
				out[ev] = code
			}
		}
	}
	return out
}

// Fuzzer drives a model-guided state-machine walk against one target.
type Fuzzer struct {
	cl  *host.Client
	cfg Config
	rng *rand.Rand

	target radio.BDAddr
	model  *sm.Machine
	// psms are the target's real scanned ports: ConnectionReqs use them
	// so the walk actually opens channels instead of being refused.
	psms []l2cap.PSM
	// deviceCID is the most recent responder-side endpoint the target
	// allocated, harvested from its ConnectionRsps: the "plausible"
	// choice when a command needs a CID the target might know.
	deviceCID l2cap.CID
	// lastPSM is the port of the most recent ConnectionReq: the finding's
	// attributed port.
	lastPSM   l2cap.PSM
	sent      int
	sincePing int
}

// New builds a fuzzer over a tester client.
func New(cl *host.Client, cfg Config) *Fuzzer {
	if cfg.MaxGarbage < 0 {
		cfg.MaxGarbage = 0
	}
	if cfg.MaxPackets <= 0 {
		cfg.MaxPackets = 50_000
	}
	if cfg.PingEvery <= 0 {
		cfg.PingEvery = 8
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 450 * time.Microsecond
	}
	return &Fuzzer{cl: cl, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Run walks the state machine against the target until it dies or the
// command budget is exhausted.
func (f *Fuzzer) Run(target radio.BDAddr) (*Report, error) {
	f.target = target
	f.model = sm.NewMachine()
	start := f.cl.Clock().Now()
	if err := f.cl.Connect(target); err != nil {
		return nil, fmt.Errorf("smfuzz: %w", err)
	}
	services, err := f.cl.QuerySDP(target)
	if err != nil {
		return nil, fmt.Errorf("smfuzz: service scan: %w", err)
	}
	for _, s := range services {
		f.psms = append(f.psms, s.PSM)
	}
	if len(f.psms) == 0 {
		return nil, ErrNoServices
	}

	report := &Report{}
	finish := func(found bool, lastCommand string) (*Report, error) {
		report.Found = found
		report.LastCommand = lastCommand
		report.PacketsSent = f.sent
		report.Elapsed = f.cl.Clock().Now() - start
		report.FinalState = f.model.State()
		report.StatesVisited = f.model.Visited()
		report.PSM = f.lastPSM
		if found {
			if rec := f.cl.Recorder(); rec != nil {
				report.Trace, report.TraceTruncated = rec.Snapshot()
			}
		}
		return report, nil
	}

	for f.sent < f.cfg.MaxPackets {
		cmd, tail, ev, desc := f.step()
		if _, err := f.cl.SendCommand(f.target, cmd, tail); err != nil {
			// The link died under us: the walk's last command killed the
			// target and its crash dropped every ACL link.
			return finish(true, desc)
		}
		f.cl.Clock().Advance(f.cfg.ThinkTime)
		f.sent++
		f.sincePing++
		f.harvest()
		if ev != 0 {
			// Mirror the target's side of the walk: apply the event, then
			// the auto-accept its upper layer performs on delivered
			// requests (connections, disconnections, moves).
			if _, ok := f.model.Apply(ev); ok {
				f.model.Apply(sm.EvLocalAccept)
			}
		}
		if f.sincePing >= f.cfg.PingEvery {
			f.sincePing = 0
			if err := f.cl.Ping(f.target); err != nil {
				return finish(true, desc)
			}
			f.sent++ // the echo probe is a transmitted packet
		}
	}
	return finish(false, "")
}

// step picks the next command of the walk. Three draws in four follow
// the model — an event the shadow state accepts; the fourth defects to
// a command the specification says to reject here, probing the target's
// invalid-transition handling. The returned event is zero when the
// command raises none (or an invalid one): the shadow must not move.
func (f *Fuzzer) step() (l2cap.Command, []byte, sm.Event, string) {
	var candidates []sm.Event
	for _, ev := range sm.ValidEvents(f.model.State()) {
		if _, ok := recvCommand[ev]; ok {
			candidates = append(candidates, ev)
		}
	}
	if len(candidates) > 0 && f.rng.Intn(4) != 0 {
		ev := candidates[f.rng.Intn(len(candidates))]
		cmd, tail := f.build(recvCommand[ev])
		return cmd, tail, ev, fmt.Sprintf("%v in %v (valid)", ev, f.model.State())
	}
	// Defection: any signaling command, valid here or not. The shadow
	// only moves if the specification accepts the event — a rejected
	// command leaves the target's channel (and the model) in place.
	codes := l2cap.AllCommandCodes()
	code := codes[f.rng.Intn(len(codes))]
	cmd, tail := f.build(code)
	ev, ok := sm.RecvEvent(code, false)
	if !ok {
		ev = 0
	} else if _, valid := sm.Lookup(f.model.State(), ev); !valid {
		ev = 0
	}
	return cmd, tail, ev, fmt.Sprintf("%v in %v (injected)", code, f.model.State())
}

// build constructs the command for code: specification defaults for the
// application fields, endpoint fields steered by the walk — real PSMs
// so connections open, a coin flip between the target's actual CID and
// one it never allocated — and a garbage tail every other command.
func (f *Fuzzer) build(code l2cap.CommandCode) (l2cap.Command, []byte) {
	cmd, err := l2cap.DefaultCommand(code)
	if err != nil {
		// AllCommandCodes only returns codes DefaultCommand knows.
		panic(fmt.Sprintf("smfuzz: no default for %v: %v", code, err))
	}
	core := cmd.CoreFields()
	if core.PSM != nil {
		*core.PSM = f.choosePSM()
	}
	for i := range core.NumCIDs() {
		*core.CID(i) = f.chooseCID()
	}
	if core.ControllerID != nil {
		*core.ControllerID = uint8(f.rng.Intn(4))
	}
	if req, ok := cmd.(*l2cap.ConnectionReq); ok {
		// A fresh requester-side endpoint keeps each opened channel
		// distinct, as a real initiator would allocate.
		req.SCID = f.cl.NextSourceCID()
		f.lastPSM = req.PSM
	}
	var tail []byte
	if f.rng.Intn(2) == 0 && f.cfg.MaxGarbage > 0 {
		tail = make([]byte, 1+f.rng.Intn(f.cfg.MaxGarbage))
		for i := range tail {
			tail[i] = byte(f.rng.Intn(256))
		}
	}
	return cmd, tail
}

// choosePSM picks the port a connection-opening command targets: mostly
// a real scanned port, so the walk opens channels, occasionally an
// arbitrary value to probe refusal paths.
func (f *Fuzzer) choosePSM() l2cap.PSM {
	if f.rng.Intn(4) != 0 {
		return f.psms[f.rng.Intn(len(f.psms))]
	}
	return l2cap.PSM(f.rng.Intn(0x10000))
}

// chooseCID picks a channel endpoint: a coin flip between the endpoint
// the target actually allocated (when one has been harvested) and a
// dynamic-range value it never did — the unknown-CID half is what
// reaches the sloppy channel lookups.
func (f *Fuzzer) chooseCID() l2cap.CID {
	if f.deviceCID != 0 && f.rng.Intn(2) == 0 {
		return f.deviceCID
	}
	lo, hi := l2cap.CIDPRange()
	return lo + l2cap.CID(f.rng.Intn(int(hi-lo)+1))
}

// harvest drains the target's responses and remembers the most recent
// responder-side endpoint it allocated.
func (f *Fuzzer) harvest() {
	for _, cmd := range f.cl.DrainCommands() {
		if rsp, ok := cmd.(*l2cap.ConnectionRsp); ok && rsp.Result == l2cap.ConnResultSuccess && rsp.DCID != 0 {
			f.deviceCID = rsp.DCID
		}
	}
}
