package device

import (
	"fmt"
	"slices"

	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/rfcomm"
	"l2fuzz/internal/bt/sdp"
	"l2fuzz/internal/bt/sm"
)

// Config describes one simulated device.
type Config struct {
	// Addr is the BD_ADDR; its OUI identifies the vendor.
	Addr radio.BDAddr
	// Name is the friendly device name.
	Name string
	// ClassOfDevice is the 24-bit class-of-device code.
	ClassOfDevice uint32
	// Profile selects the vendor stack behaviour.
	Profile Profile
	// Ports are the exposed services. An SDP port (PSM 0x0001) is added
	// automatically when absent, since every Bluetooth device has one.
	Ports []ServicePort
	// DisableVulns suppresses all injected defects: used by measurement
	// experiments that must survive 100,000 packets.
	DisableVulns bool
	// RFCOMMServices mounts an RFCOMM multiplexer with these services on
	// the device's RFCOMM L2CAP channel (the §V extension substrate).
	RFCOMMServices []rfcomm.Service
	// RFCOMMDefect optionally injects a defect into the multiplexer.
	// Defects are declarative (kind plus calibration), so a Config is
	// plain data; nil means a robust mux.
	RFCOMMDefect *rfcomm.MuxDefect
	// SDPDefect optionally injects a parser defect into the device's SDP
	// server; nil means a robust server.
	SDPDefect *sdp.ServerDefect
}

// Device is one simulated Bluetooth target.
type Device struct {
	ctrl   *hci.Controller
	medium *radio.Medium
	cfg    Config
	sdpSrv *sdp.Server
	mux    *rfcomm.Mux
	ports  []ServicePort

	// channels holds the open channels: at most the profile's
	// MaxDynamicChannels, so lookups by CID scan the slice.
	channels []*channel
	// closedSeen holds the states the machines of closed channels
	// visited, as a bit set (bit s for state s); their channels wait in
	// spare for newChannel to reuse.
	closedSeen uint32
	spare      []*channel
	nextCID    l2cap.CID
	nextSigID  uint8

	serviceDown bool
	poweredOff  bool
	dump        *CrashDump

	// cmdSeq counts signaling commands decoded since the last Reset: the
	// command clock exhaustion-style defect triggers
	// (device.TriggerCommandFlood) read through TriggerContext.Seq.
	cmdSeq int

	// The handler counters count invocations per packet handler: the
	// simulated analogue of the limited code-coverage measurement the
	// paper's §V cites Frankenstein for. cmdHits is indexed by command
	// code; HandlerCoverage names the slots.
	cmdHits                              [256]int
	sdpHits, rfcommHits, undecodableHits int

	// Reused scratch state for the steady-state receive/respond path.
	// The device never receives while mid-send (the client's receive
	// callback only enqueues), so one of each per device suffices.
	dec       l2cap.Decoder
	sigFrames []l2cap.Frame // SplitSignals scratch in onSignaling
	sigWire   []byte        // signaling payload built by sendCmd
	txWire    []byte        // wire bytes of the frame being sent
	rsp       replies
}

// replies holds the device's reply commands, one value per kind, refilled
// in place for every reply. sendCmd marshals its command before it
// returns, so a reply value is only valid until then: the same window
// in which the decoder's commands are.
type replies struct {
	reject      l2cap.CommandReject
	rejectData  []byte // reason data scratch of reject
	echo        l2cap.EchoRsp
	conn        l2cap.ConnectionRsp
	create      l2cap.CreateChannelRsp
	cfgReq      l2cap.ConfigurationReq
	cfgRsp      l2cap.ConfigurationRsp
	disc        l2cap.DisconnectionRsp
	info        l2cap.InformationRsp
	move        l2cap.MoveChannelRsp
	moveConfirm l2cap.MoveChannelConfirmRsp
	credit      l2cap.CreditBasedConnRsp
	// ownConfig is the option list of the device's own Configuration
	// Request, built on first use (the signaling MTU never changes).
	ownConfig []l2cap.ConfigOption
}

type channel struct {
	m         sm.Machine
	localCID  l2cap.CID
	remoteCID l2cap.CID
	psm       l2cap.PSM
}

// newSDPServer builds the device's SDP server over its port map, with
// the configured parser defect unless the device is measurement-grade.
// New and Reset both build through it, so a reset re-arms the defect and
// clears the crashed state exactly like the RFCOMM mux rebuild.
func newSDPServer(ports []ServicePort, cfg Config) *sdp.Server {
	var services []sdp.ServiceInfo
	for i, p := range ports {
		services = append(services, sdp.ServiceInfo{
			Handle: 0x00010000 + uint32(i),
			Name:   p.Name,
			PSM:    p.PSM,
		})
	}
	defect := cfg.SDPDefect
	if cfg.DisableVulns {
		defect = nil
	}
	return sdp.NewDefectiveServer(services, defect)
}

// New builds a device, registers its controller on the medium, and wires
// the host stack.
func New(m *radio.Medium, cfg Config) (*Device, error) {
	ports := append([]ServicePort(nil), cfg.Ports...)
	hasSDP := false
	for _, p := range ports {
		if p.PSM == l2cap.PSMSDP {
			hasSDP = true
		}
	}
	if !hasSDP {
		ports = append([]ServicePort{{PSM: l2cap.PSMSDP, Name: "Service Discovery"}}, ports...)
	}

	ctrl, err := hci.NewController(m, hci.Config{
		Addr:          cfg.Addr,
		Name:          cfg.Name,
		ClassOfDevice: cfg.ClassOfDevice,
		Discoverable:  true,
		Connectable:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("device %q: %w", cfg.Name, err)
	}

	d := &Device{
		ctrl:      ctrl,
		medium:    m,
		cfg:       cfg,
		sdpSrv:    newSDPServer(ports, cfg),
		ports:     ports,
		nextCID:   l2cap.CIDDynamicFirst,
		nextSigID: 1,
	}
	if len(cfg.RFCOMMServices) > 0 {
		defect := cfg.RFCOMMDefect
		if cfg.DisableVulns {
			defect = nil
		}
		d.mux = rfcomm.NewMux(cfg.RFCOMMServices, defect)
	}
	ctrl.SetReceiver(d.onL2CAP)
	ctrl.SetDisconnectHandler(func(hci.ConnHandle, radio.BDAddr) {
		// Baseband link loss tears down every L2CAP channel riding it
		// (single-peer simulation: all channels belong to the link).
		for _, ch := range d.channels {
			d.retire(ch)
		}
		clear(d.channels)
		d.channels = d.channels[:0]
	})
	return d, nil
}

// Address returns the device's BD_ADDR.
func (d *Device) Address() radio.BDAddr { return d.cfg.Addr }

// Name returns the friendly name.
func (d *Device) Name() string { return d.cfg.Name }

// Ports returns a copy of the exposed service ports (SDP included).
func (d *Device) Ports() []ServicePort { return append([]ServicePort(nil), d.ports...) }

// Profile returns the stack profile.
func (d *Device) Profile() Profile { return d.cfg.Profile }

// Controller exposes the underlying virtual controller (tests only).
func (d *Device) Controller() *hci.Controller { return d.ctrl }

// Crashed reports whether any defect has fired.
func (d *Device) Crashed() bool { return d.serviceDown || d.poweredOff }

// ServiceDown reports whether the Bluetooth service was terminated (DoS).
func (d *Device) ServiceDown() bool { return d.serviceDown }

// PoweredOff reports whether the whole device died (firmware crash).
func (d *Device) PoweredOff() bool { return d.poweredOff }

// CrashDump returns the crash artefact, or nil.
func (d *Device) CrashDump() *CrashDump { return d.dump }

// Reset restores a crashed device: the manual reset the paper's testers
// performed between runs. Channels are cleared, the service comes back,
// and the crash artefact is discarded.
func (d *Device) Reset() {
	d.serviceDown = false
	d.poweredOff = false
	d.dump = nil
	d.channels = nil
	d.closedSeen = 0
	d.nextCID = l2cap.CIDDynamicFirst
	d.cmdSeq = 0
	d.sdpSrv = newSDPServer(d.ports, d.cfg)
	if len(d.cfg.RFCOMMServices) > 0 {
		defect := d.cfg.RFCOMMDefect
		if d.cfg.DisableVulns {
			defect = nil
		}
		d.mux = rfcomm.NewMux(d.cfg.RFCOMMServices, defect)
	}
	d.ctrl.SetConnectable(true)
	d.ctrl.SetDiscoverable(true)
}

// StatesVisited returns every L2CAP state any of the device's channels
// has occupied since the last Reset: the ground truth against which the
// trace-inferred state coverage (Figure 10) can be validated.
func (d *Device) StatesVisited() []sm.State {
	seen := d.closedSeen
	for _, ch := range d.channels {
		seen |= ch.m.VisitedSet()
	}
	var out []sm.State
	for _, s := range sm.AllStates() {
		if seen&(1<<s) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// onL2CAP is the host-stack entry point for complete L2CAP frames.
func (d *Device) onL2CAP(h hci.ConnHandle, peer radio.BDAddr, raw []byte) {
	if d.poweredOff || d.serviceDown {
		return
	}
	// The frame is a borrow from the controller, valid until this
	// handler returns; every response below is marshaled before then,
	// so the zero-copy parse is safe.
	pkt, err := l2cap.ParsePacket(raw)
	if err != nil {
		return // undecodable basic frames are dropped
	}
	if pkt.IsSignaling() {
		d.onSignaling(h, pkt)
		return
	}
	d.onData(h, pkt)
}

// onData serves open data channels: SDP transactions and, when mounted,
// the RFCOMM multiplexer.
func (d *Device) onData(h hci.ConnHandle, pkt l2cap.Packet) {
	ch := d.channel(pkt.ChannelID)
	if ch == nil || ch.m.State() != sm.StateOpen {
		return
	}
	body := pkt.Payload[:min(int(pkt.Length), len(pkt.Payload))]
	switch {
	case ch.psm == l2cap.PSMSDP:
		d.sdpHits++
		if rsp := d.sdpSrv.Handle(body); rsp != nil {
			d.send(h, l2cap.NewPacket(ch.remoteCID, rsp))
		}
		if d.sdpSrv.Crashed() {
			d.crashFromSDP()
		}
	case ch.psm == l2cap.PSMRFCOMM && d.mux != nil:
		d.rfcommHits++
		// RFCOMM garbage tails live beyond the declared L2CAP length;
		// hand the mux the full payload so its own FCS/tail logic sees
		// them (the buggy parse path reads past the declared length).
		for _, rsp := range d.mux.Handle(pkt.Payload) {
			d.send(h, l2cap.NewPacket(ch.remoteCID, rsp))
		}
		if d.mux.Crashed() {
			d.crashFromRFCOMM()
		}
	}
}

// crashFromSDP applies the effect of an SDP server death: the Bluetooth
// service terminates, as with the L2CAP DoS findings.
func (d *Device) crashFromSDP() {
	d.dump = &CrashDump{
		Kind:        DumpTombstone,
		Time:        d.medium.Clock().Now(),
		VulnID:      "sdp-declared-length-overread",
		Fingerprint: d.cfg.Profile.Fingerprint,
		FaultFunc:   "process_service_search_attr_req(t_sdp_cb*, unsigned char*)+312",
		Trigger:     "SDP PDU declaring more parameter bytes than received",
	}
	d.serviceDown = true
	d.ctrl.SetConnectable(false)
	d.ctrl.SetDiscoverable(false)
	d.dropAllLinks()
}

// crashFromRFCOMM applies the effect of an RFCOMM multiplexer death: the
// Bluetooth service terminates, as with the L2CAP DoS findings.
func (d *Device) crashFromRFCOMM() {
	d.dump = &CrashDump{
		Kind:        DumpTombstone,
		Time:        d.medium.Clock().Now(),
		VulnID:      "rfcomm-reserved-dlci-deref",
		Fingerprint: d.cfg.Profile.Fingerprint,
		FaultFunc:   "rfc_mx_sm_execute(t_rfc_mcb*, unsigned short, void*)+1024",
		Trigger:     "SABM to reserved DLCI with garbage tail",
	}
	d.serviceDown = true
	d.ctrl.SetConnectable(false)
	d.ctrl.SetDiscoverable(false)
	d.dropAllLinks()
}

// onSignaling handles a signaling-channel C-frame.
func (d *Device) onSignaling(h hci.ConnHandle, pkt l2cap.Packet) {
	if len(pkt.Payload) > int(d.cfg.Profile.SignalingMTU) {
		d.rsp.rejectData = l2cap.AppendMTUExceededReason(d.rsp.rejectData[:0], d.cfg.Profile.SignalingMTU)
		d.reject(h, 0, l2cap.RejectSignalingMTUExceeded, d.rsp.rejectData)
		return
	}
	frames, ok := l2cap.SplitSignals(d.sigFrames[:0], pkt.Payload)
	d.sigFrames = frames[:0]
	if !ok {
		d.rejectNotUnderstood(h, 0)
		return
	}
	for _, f := range frames {
		d.handleCommand(h, f)
		if d.Crashed() {
			return
		}
	}
}

// handleCommand dispatches one decoded signaling command.
func (d *Device) handleCommand(h hci.ConnHandle, f l2cap.Frame) {
	cmd, err := d.dec.Decode(f)
	if err != nil {
		d.undecodableHits++
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	d.cmdHits[f.Code]++
	d.cmdSeq++
	switch c := cmd.(type) {
	case *l2cap.ConnectionReq:
		d.onConnectionReq(h, f, c)
	case *l2cap.CreateChannelReq:
		d.onCreateChannelReq(h, f, c)
	case *l2cap.ConfigurationReq:
		d.onConfigurationReq(h, f, c)
	case *l2cap.ConfigurationRsp:
		d.onConfigurationRsp(h, f, c)
	case *l2cap.DisconnectionReq:
		d.onDisconnectionReq(h, f, c)
	case *l2cap.EchoReq:
		d.rsp.echo.Data = c.Data
		d.sendCmd(h, f.Identifier, &d.rsp.echo, nil)
	case *l2cap.InformationReq:
		d.onInformationReq(h, f, c)
	case *l2cap.MoveChannelReq:
		d.onMoveChannelReq(h, f, c)
	case *l2cap.MoveChannelConfirmReq:
		d.onMoveConfirmReq(h, f, c)
	case *l2cap.ConnectionRsp, *l2cap.CreateChannelRsp, *l2cap.MoveChannelRsp,
		*l2cap.MoveChannelConfirmRsp, *l2cap.DisconnectionRsp:
		d.onStrayResponse(h, f)
	case *l2cap.CommandReject, *l2cap.EchoRsp, *l2cap.InformationRsp:
		// Responses to nothing we asked; ignored by every stack.
	case *l2cap.ConnParamUpdateReq, *l2cap.ConnParamUpdateRsp,
		*l2cap.LECreditConnReq, *l2cap.LECreditConnRsp:
		// LE-only commands on an ACL-U link: tolerant stacks drop them,
		// strict stacks do not understand them.
		if !d.cfg.Profile.TolerateLEOnACLU {
			d.rejectNotUnderstood(h, f.Identifier)
		}
	case *l2cap.FlowControlCredit:
		d.rejectInvalidCID(h, f.Identifier, 0, c.CID)
	case *l2cap.CreditBasedConnReq:
		d.onCreditConnReq(h, f, c)
	case *l2cap.CreditBasedConnRsp, *l2cap.CreditBasedReconfReq, *l2cap.CreditBasedReconfRsp:
		if !d.cfg.Profile.SupportsECRED {
			d.rejectNotUnderstood(h, f.Identifier)
		}
	default:
		d.rejectNotUnderstood(h, f.Identifier)
	}
}

// onConnectionReq implements the acceptor side of channel establishment.
func (d *Device) onConnectionReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.ConnectionReq) {
	if d.checkVuln(h, f, c, sm.StateClosed, false) {
		return
	}
	reply := func(result l2cap.ConnResult, dcid l2cap.CID) {
		d.rsp.conn = l2cap.ConnectionRsp{DCID: dcid, SCID: c.SCID, Result: result}
		d.sendCmd(h, f.Identifier, &d.rsp.conn, nil)
	}
	port, ok := d.lookupPort(c.PSM)
	switch {
	case !ok:
		reply(l2cap.ConnResultPSMNotSupported, 0)
	case port.RequiresPairing:
		reply(l2cap.ConnResultSecurityBlock, 0)
	case len(d.channels) >= d.cfg.Profile.MaxDynamicChannels:
		reply(l2cap.ConnResultNoResources, 0)
	case d.remoteCIDInUse(c.SCID):
		reply(l2cap.ConnResultSCIDInUse, 0)
	case !c.SCID.IsDynamic():
		reply(l2cap.ConnResultInvalidSCID, 0)
	default:
		ch := d.newChannel(c.PSM, c.SCID)
		ch.m.Apply(sm.EvRecvConnectReq) // CLOSED → WAIT_CONNECT
		ch.m.Apply(sm.EvLocalAccept)    // WAIT_CONNECT → WAIT_CONFIG
		reply(l2cap.ConnResultSuccess, ch.localCID)
		d.maybeSendOwnConfig(h, ch)
	}
}

// onCreateChannelReq implements the AMP create-channel acceptor.
func (d *Device) onCreateChannelReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.CreateChannelReq) {
	if d.checkVuln(h, f, c, sm.StateWaitCreate, false) {
		return
	}
	reply := func(result l2cap.ConnResult, dcid l2cap.CID) {
		d.rsp.create = l2cap.CreateChannelRsp{DCID: dcid, SCID: c.SCID, Result: result}
		d.sendCmd(h, f.Identifier, &d.rsp.create, nil)
	}
	port, ok := d.lookupPort(c.PSM)
	switch {
	case c.ControllerID != 0:
		// Only the BR/EDR controller exists in the simulation.
		reply(l2cap.ConnResultNoController, 0)
	case !ok:
		reply(l2cap.ConnResultPSMNotSupported, 0)
	case port.RequiresPairing:
		reply(l2cap.ConnResultSecurityBlock, 0)
	case len(d.channels) >= d.cfg.Profile.MaxDynamicChannels:
		reply(l2cap.ConnResultNoResources, 0)
	case d.remoteCIDInUse(c.SCID) || !c.SCID.IsDynamic():
		reply(l2cap.ConnResultInvalidSCID, 0)
	default:
		ch := d.newChannel(c.PSM, c.SCID)
		ch.m.Apply(sm.EvRecvCreateReq) // CLOSED → WAIT_CREATE
		ch.m.Apply(sm.EvLocalAccept)   // WAIT_CREATE → WAIT_CONFIG
		reply(l2cap.ConnResultSuccess, ch.localCID)
		d.maybeSendOwnConfig(h, ch)
	}
}

// onConfigurationReq implements the configuration responder, including
// the lenient channel lookup of the vulnerable stacks.
func (d *Device) onConfigurationReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.ConfigurationReq) {
	ch := d.channel(c.DCID)
	known := ch != nil
	if !known && d.cfg.Profile.LenientChannelLookup {
		ch = d.anyConfigJobChannel()
	}
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.rejectInvalidCID(h, f.Identifier, 0, c.DCID)
		return
	}
	ev := sm.EvRecvConfigReq
	if hasEFSOption(c.Options) {
		ev = sm.EvRecvConfigReqEFS
	}
	tr, ok := ch.m.Apply(ev)
	if !ok {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	result := l2cap.ConfigSuccess
	if tr.Action == sm.ActSendConfigRspPending {
		result = l2cap.ConfigPending
	}
	d.sendConfigRsp(h, f.Identifier, ch.remoteCID, result)
	if tr.Action == sm.ActSendConfigRspPending {
		// Complete the lockstep decision immediately: final response.
		if tr2, ok2 := ch.m.Apply(sm.EvLocalFinalRsp); ok2 && tr2.Action == sm.ActSendConfigRsp {
			d.sendConfigRsp(h, d.sigID(), ch.remoteCID, l2cap.ConfigSuccess)
		}
		return
	}
	if ch.m.State() == sm.StateWaitSendConfig {
		// Reactive configuration: even stacks that do not propose eagerly
		// send their own request once the peer has configured.
		d.sendOwnConfig(h, ch)
	}
}

// onConfigurationRsp consumes responses to the device's own proposals.
func (d *Device) onConfigurationRsp(h hci.ConnHandle, f l2cap.Frame, c *l2cap.ConfigurationRsp) {
	ch := d.channel(c.SCID)
	known := ch != nil
	if !known && d.cfg.Profile.LenientChannelLookup {
		ch = d.anyConfigJobChannel()
	}
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.onStrayResponse(h, f)
		return
	}
	if _, ok := ch.m.Apply(sm.EvRecvConfigRsp); !ok {
		d.onStrayResponse(h, f)
	}
}

// onDisconnectionReq tears a channel down.
func (d *Device) onDisconnectionReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.DisconnectionReq) {
	ch := d.channel(c.DCID)
	known := ch != nil
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil || (!d.cfg.Profile.LenientChannelLookup && ch.remoteCID != c.SCID) {
		d.rejectInvalidCID(h, f.Identifier, c.DCID, c.SCID)
		return
	}
	tr, ok := ch.m.Apply(sm.EvRecvDisconnectReq)
	if !ok {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	if tr.Action == sm.ActDeliverToUpper {
		// OPEN → WAIT_DISCONNECT → (upper accepts) → CLOSED.
		tr, ok = ch.m.Apply(sm.EvLocalAccept)
		if !ok {
			return
		}
	}
	if tr.Action == sm.ActSendDisconnectRsp {
		d.rsp.disc = l2cap.DisconnectionRsp{DCID: c.DCID, SCID: c.SCID}
		d.sendCmd(h, f.Identifier, &d.rsp.disc, nil)
	}
	d.closeChannel(ch)
}

// The Information Response values every profile reports, shared
// read-only by every device's replies.
var (
	infoConnectionlessMTU = []byte{0xA0, 0x02}             // 672
	infoExtendedFeatures  = []byte{0x80, 0x02, 0x00, 0x00} // FCS + fixed channels
	infoFixedChannels     = []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
)

// onInformationReq answers capability queries.
func (d *Device) onInformationReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.InformationReq) {
	rsp := &d.rsp.info
	*rsp = l2cap.InformationRsp{InfoType: c.InfoType}
	switch c.InfoType {
	case l2cap.InfoTypeConnectionlessMTU:
		rsp.Result = l2cap.InfoResultSuccess
		rsp.Data = infoConnectionlessMTU
	case l2cap.InfoTypeExtendedFeatures:
		rsp.Result = l2cap.InfoResultSuccess
		rsp.Data = infoExtendedFeatures
	case l2cap.InfoTypeFixedChannels:
		rsp.Result = l2cap.InfoResultSuccess
		rsp.Data = infoFixedChannels
	default:
		rsp.Result = l2cap.InfoResultNotSupported
	}
	d.sendCmd(h, f.Identifier, rsp, nil)
}

// onMoveChannelReq implements the AMP move acceptor.
func (d *Device) onMoveChannelReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.MoveChannelReq) {
	ch := d.channel(c.ICID)
	known := ch != nil
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.rejectInvalidCID(h, f.Identifier, 0, c.ICID)
		return
	}
	if _, ok := ch.m.Apply(sm.EvRecvMoveReq); !ok {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	if tr, ok := ch.m.Apply(sm.EvLocalAccept); ok && tr.Action == sm.ActSendMoveRsp {
		d.rsp.move = l2cap.MoveChannelRsp{ICID: c.ICID, Result: l2cap.MoveResultSuccess}
		d.sendCmd(h, f.Identifier, &d.rsp.move, nil)
	}
}

// onMoveConfirmReq completes a move.
func (d *Device) onMoveConfirmReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.MoveChannelConfirmReq) {
	ch := d.channel(c.ICID)
	known := ch != nil
	state := sm.StateClosed
	if ch != nil {
		state = ch.m.State()
	}
	if d.checkVuln(h, f, c, state, known) {
		return
	}
	if ch == nil {
		d.rejectInvalidCID(h, f.Identifier, 0, c.ICID)
		return
	}
	if tr, ok := ch.m.Apply(sm.EvRecvMoveConfirmReq); ok && tr.Action == sm.ActSendMoveConfirmRsp {
		d.rsp.moveConfirm.ICID = c.ICID
		d.sendCmd(h, f.Identifier, &d.rsp.moveConfirm, nil)
		return
	}
	d.rejectNotUnderstood(h, f.Identifier)
}

// onCreditConnReq answers enhanced credit-based connections: supported
// stacks refuse them politely (no SPSM registered in the simulation),
// others do not understand them.
func (d *Device) onCreditConnReq(h hci.ConnHandle, f l2cap.Frame, c *l2cap.CreditBasedConnReq) {
	if !d.cfg.Profile.SupportsECRED {
		d.rejectNotUnderstood(h, f.Identifier)
		return
	}
	d.rsp.credit = l2cap.CreditBasedConnRsp{
		Result: 0x0002, // all connections refused – SPSM not supported
	}
	d.sendCmd(h, f.Identifier, &d.rsp.credit, nil)
}

// onStrayResponse handles response commands matching no request.
func (d *Device) onStrayResponse(h hci.ConnHandle, f l2cap.Frame) {
	if d.cfg.Profile.AcceptStrayResponses {
		return // the Android quirk: silently tolerated
	}
	d.rejectNotUnderstood(h, f.Identifier)
}

// checkVuln evaluates the injected defects against one command; when one
// fires it applies the crash effect and returns true (no response is ever
// sent — the stack died mid-parse).
func (d *Device) checkVuln(h hci.ConnHandle, f l2cap.Frame, cmd l2cap.Command, state sm.State, knownCID bool) bool {
	if d.cfg.DisableVulns {
		return false
	}
	ctx := TriggerContext{
		State:    state,
		Code:     f.Code,
		Cmd:      cmd,
		Tail:     f.Tail,
		KnownCID: knownCID,
		Seq:      d.cmdSeq,
	}
	for _, v := range d.cfg.Profile.Vulns {
		if v.Trigger.Matches(ctx) {
			d.crash(v, f)
			return true
		}
	}
	return false
}

// crash applies a fired defect's effect.
func (d *Device) crash(v VulnSpec, f l2cap.Frame) {
	d.dump = &CrashDump{
		Kind:        v.Dump,
		Time:        d.medium.Clock().Now(),
		VulnID:      v.ID,
		Fingerprint: d.cfg.Profile.Fingerprint,
		FaultFunc:   v.FaultFunc,
		Trigger:     fmt.Sprintf("%v id=%d data=%d bytes tail=%d bytes", f.Code, f.Identifier, len(f.Data), len(f.Tail)),
	}
	switch v.Class {
	case ClassDoS:
		// Bluetooth service terminates: links die, pages are refused,
		// the device itself stays on (paper Figure 13).
		d.serviceDown = true
		d.ctrl.SetConnectable(false)
		d.ctrl.SetDiscoverable(false)
		d.dropAllLinks()
	case ClassCrash:
		// The device (or its Bluetooth subsystem) dies entirely.
		d.poweredOff = true
		d.ctrl.SetConnectable(false)
		d.ctrl.SetDiscoverable(false)
		d.dropAllLinks()
		d.medium.Unregister(d.cfg.Addr)
	}
}

func (d *Device) dropAllLinks() {
	for _, peer := range d.ctrl.Peers() {
		d.ctrl.DropPeer(peer)
	}
}

// --- helpers ---

func (d *Device) lookupPort(psm l2cap.PSM) (ServicePort, bool) {
	for _, p := range d.ports {
		if p.PSM == psm {
			return p, true
		}
	}
	return ServicePort{}, false
}

// channel returns the open channel whose local endpoint is cid, or nil.
func (d *Device) channel(cid l2cap.CID) *channel {
	for _, ch := range d.channels {
		if ch.localCID == cid {
			return ch
		}
	}
	return nil
}

func (d *Device) remoteCIDInUse(cid l2cap.CID) bool {
	for _, ch := range d.channels {
		if ch.remoteCID == cid {
			return true
		}
	}
	return false
}

// anyConfigJobChannel returns some channel currently in a configuration-
// job state: the target of the sloppy CCB lookup. Deterministic choice:
// lowest local CID wins.
func (d *Device) anyConfigJobChannel() *channel {
	var best *channel
	for _, ch := range d.channels {
		if sm.JobOf(ch.m.State()) != sm.JobConfiguration {
			continue
		}
		if best == nil || ch.localCID < best.localCID {
			best = ch
		}
	}
	return best
}

func (d *Device) newChannel(psm l2cap.PSM, remote l2cap.CID) *channel {
	for d.channel(d.nextCID) != nil {
		d.nextCID++
		if d.nextCID < l2cap.CIDDynamicFirst {
			d.nextCID = l2cap.CIDDynamicFirst
		}
	}
	var ch *channel
	if n := len(d.spare); n > 0 {
		ch = d.spare[n-1]
		d.spare = d.spare[:n-1]
	} else {
		ch = new(channel)
	}
	ch.m.Reset()
	ch.localCID, ch.remoteCID, ch.psm = d.nextCID, remote, psm
	d.channels = append(d.channels, ch)
	d.nextCID++
	if d.nextCID < l2cap.CIDDynamicFirst {
		d.nextCID = l2cap.CIDDynamicFirst
	}
	return ch
}

func (d *Device) closeChannel(ch *channel) {
	d.channels = slices.DeleteFunc(d.channels, func(c *channel) bool { return c == ch })
	d.retire(ch)
}

// retire folds a closed channel's visited states into closedSeen and
// keeps the channel for reuse. The caller has removed it from channels.
func (d *Device) retire(ch *channel) {
	d.closedSeen |= ch.m.VisitedSet()
	d.spare = append(d.spare, ch)
}

// maybeSendOwnConfig emits the stack's own Configuration Request when the
// profile is eager, driving the machine's local-send event. Even eager
// stacks stay reactive on the SDP channel: SDP is a client-driven
// service, so the server waits for the client's configuration first —
// which is exactly why single-port fuzzers that only ever touch SDP see
// fewer configuration states than L2Fuzz's multi-port sweep.
func (d *Device) maybeSendOwnConfig(h hci.ConnHandle, ch *channel) {
	if !d.cfg.Profile.SendsOwnConfigReq || ch.psm == l2cap.PSMSDP {
		return
	}
	d.sendOwnConfig(h, ch)
}

// sendOwnConfig unconditionally emits the stack's Configuration Request
// if the machine allows it in the current state.
func (d *Device) sendOwnConfig(h hci.ConnHandle, ch *channel) {
	if _, ok := ch.m.Apply(sm.EvLocalSendConfigReq); !ok {
		return
	}
	if d.rsp.ownConfig == nil {
		d.rsp.ownConfig = []l2cap.ConfigOption{l2cap.MTUOption(d.cfg.Profile.SignalingMTU)}
	}
	d.rsp.cfgReq = l2cap.ConfigurationReq{DCID: ch.remoteCID, Options: d.rsp.ownConfig}
	d.sendCmd(h, d.sigID(), &d.rsp.cfgReq, nil)
}

// sendConfigRsp answers a Configuration Request with result.
func (d *Device) sendConfigRsp(h hci.ConnHandle, id uint8, scid l2cap.CID, result l2cap.ConfigResult) {
	d.rsp.cfgRsp = l2cap.ConfigurationRsp{SCID: scid, Result: result}
	d.sendCmd(h, id, &d.rsp.cfgRsp, nil)
}

// reject sends a Command Reject carrying reason and its reason data.
func (d *Device) reject(h hci.ConnHandle, id uint8, reason l2cap.RejectReason, data []byte) {
	d.rsp.reject = l2cap.CommandReject{Reason: reason, ReasonData: data}
	d.sendCmd(h, id, &d.rsp.reject, nil)
}

// rejectNotUnderstood sends the "command not understood" reject.
func (d *Device) rejectNotUnderstood(h hci.ConnHandle, id uint8) {
	d.reject(h, id, l2cap.RejectNotUnderstood, nil)
}

// rejectInvalidCID sends the reject a stack sends for a command that
// referenced a channel endpoint it never allocated.
func (d *Device) rejectInvalidCID(h hci.ConnHandle, id uint8, local, remote l2cap.CID) {
	d.rsp.rejectData = l2cap.AppendInvalidCIDReason(d.rsp.rejectData[:0], local, remote)
	d.reject(h, id, l2cap.RejectInvalidCID, d.rsp.rejectData)
}

func (d *Device) sigID() uint8 {
	id := d.nextSigID
	d.nextSigID++
	if d.nextSigID == 0 {
		d.nextSigID = 1
	}
	return id
}

func (d *Device) sendCmd(h hci.ConnHandle, id uint8, cmd l2cap.Command, tail []byte) {
	if id == 0 {
		id = d.sigID()
	}
	pkt := l2cap.AppendSignalPacket(d.sigWire[:0], id, cmd, tail)
	d.sigWire = pkt.Payload
	d.send(h, pkt)
}

func (d *Device) send(h hci.ConnHandle, pkt l2cap.Packet) {
	// Send failures mean the link died mid-conversation; the device,
	// like real hardware, just moves on. The frame is marshaled into a
	// reused scratch buffer, fully delivered before the next send.
	d.txWire = pkt.AppendTo(d.txWire[:0])
	_ = d.ctrl.SendL2CAP(h, d.txWire)
}

func hasEFSOption(opts []l2cap.ConfigOption) bool {
	for _, o := range opts {
		if o.Type == l2cap.OptionExtendedFlowSpec {
			return true
		}
	}
	return false
}

// Medium exposes the radio medium the device lives on, for tooling that
// needs to restore a vanished device (campaign auto-reset).
func (d *Device) Medium() *radio.Medium { return d.medium }

// HandlerCoverage returns the per-handler invocation counts since
// construction: the simulated analogue of the limited code-coverage
// measurement §V cites Frankenstein for. Keys are command names plus
// "SDP", "RFCOMM" and "undecodable"; handlers never invoked are absent.
// The map is built on each call and is the caller's to keep.
func (d *Device) HandlerCoverage() map[string]int {
	out := make(map[string]int)
	add := func(name string, n int) {
		if n > 0 {
			out[name] = n
		}
	}
	for code, n := range d.cmdHits {
		add(l2cap.CommandCode(code).String(), n)
	}
	add("SDP", d.sdpHits)
	add("RFCOMM", d.rfcommHits)
	add("undecodable", d.undecodableHits)
	return out
}
