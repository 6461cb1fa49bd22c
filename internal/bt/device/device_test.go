package device

import (
	"strings"
	"testing"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

// testRig builds a medium with one device and one tester client.
func testRig(t *testing.T, cfg Config) (*radio.Medium, *Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	d, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatal(err)
	}
	return m, d, cl
}

func basicConfig(profile Profile) Config {
	return Config{
		Addr:          radio.MustBDAddr("F8:8F:CA:00:00:02"),
		Name:          "unit-device",
		ClassOfDevice: 0x5A020C,
		Profile:       profile,
		Ports: []ServicePort{
			{PSM: l2cap.PSMAVDTP, Name: "AVDTP"},
			{PSM: l2cap.PSMRFCOMM, Name: "RFCOMM", RequiresPairing: true},
		},
	}
}

func TestDeviceAddsSDPPortAutomatically(t *testing.T) {
	_, d, _ := testRig(t, basicConfig(IOSProfile("4.2")))
	found := false
	for _, p := range d.Ports() {
		if p.PSM == l2cap.PSMSDP {
			found = true
			if p.RequiresPairing {
				t.Error("SDP port must never require pairing")
			}
		}
	}
	if !found {
		t.Fatal("device lacks the mandatory SDP port")
	}
}

func TestEchoPing(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	if err := cl.Ping(d.Address()); err != nil {
		t.Fatalf("Ping() error = %v", err)
	}
}

func TestConnectionResponses(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	tests := []struct {
		name string
		psm  l2cap.PSM
		want l2cap.ConnResult
	}{
		{"open port", l2cap.PSMAVDTP, l2cap.ConnResultSuccess},
		{"pairing-gated port", l2cap.PSMRFCOMM, l2cap.ConnResultSecurityBlock},
		{"unknown port", 0x0F01, l2cap.ConnResultPSMNotSupported},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := cl.TryOpenChannel(d.Address(), tt.psm)
			if err != nil {
				t.Fatalf("TryOpenChannel() error = %v", err)
			}
			if res.Result != tt.want {
				t.Fatalf("Result = %v, want %v", res.Result, tt.want)
			}
		})
	}
}

func TestChannelCapGivesNoResources(t *testing.T) {
	cfg := basicConfig(RTKitProfile("4.2")) // cap: 4 dynamic channels
	_, d, cl := testRig(t, cfg)
	got := make([]l2cap.ConnResult, 0, 6)
	for i := 0; i < 6; i++ {
		res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMAVDTP)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Result)
	}
	succ, refused := 0, 0
	for _, r := range got {
		switch r {
		case l2cap.ConnResultSuccess:
			succ++
		case l2cap.ConnResultNoResources:
			refused++
		}
	}
	if succ != 4 || refused != 2 {
		t.Fatalf("results = %v: want 4 successes then 2 no-resources", got)
	}
}

func TestSCIDCollisionRefused(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	scid := l2cap.CID(0x0055)
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConnectionReq{PSM: l2cap.PSMAVDTP, SCID: scid}, nil); err != nil {
		t.Fatal(err)
	}
	cl.Drain()
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConnectionReq{PSM: l2cap.PSMAVDTP, SCID: scid}, nil); err != nil {
		t.Fatal(err)
	}
	sawInUse := false
	for _, cmd := range cl.DrainCommands() {
		if rsp, ok := cmd.(*l2cap.ConnectionRsp); ok && rsp.Result == l2cap.ConnResultSCIDInUse {
			sawInUse = true
		}
	}
	if !sawInUse {
		t.Fatal("duplicate SCID not refused with SCID-in-use")
	}
}

func TestFullChannelOpenReachesOpenStateOnEveryProfile(t *testing.T) {
	profiles := map[string]Profile{
		"BlueDroid": BlueDroidProfile("5.0", "fp"),
		"BlueZ":     BlueZProfile("5.0", "fp"),
		"iOS":       IOSProfile("4.2"),
		"Windows":   WindowsProfile("5.0"),
		"BTW":       BTWProfile("5.0"),
		"RTKit":     RTKitProfile("4.2"),
	}
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			_, d, cl := testRig(t, basicConfig(p))
			if _, _, err := cl.OpenChannel(d.Address(), l2cap.PSMAVDTP); err != nil {
				t.Fatalf("OpenChannel() error = %v", err)
			}
			states := d.StatesVisited()
			hasOpen := false
			for _, s := range states {
				if s == sm.StateOpen {
					hasOpen = true
				}
			}
			if !hasOpen {
				t.Fatalf("device never reached OPEN; visited %v", states)
			}
		})
	}
}

func TestSDPQueryListsAllPorts(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	services, err := cl.QuerySDP(d.Address())
	if err != nil {
		t.Fatalf("QuerySDP() error = %v", err)
	}
	if len(services) != len(d.Ports()) {
		t.Fatalf("SDP lists %d services, device has %d ports", len(services), len(d.Ports()))
	}
	seen := make(map[l2cap.PSM]bool)
	for _, s := range services {
		seen[s.PSM] = true
	}
	for _, p := range d.Ports() {
		if !seen[p.PSM] {
			t.Errorf("port %v missing from SDP response", p.PSM)
		}
	}
}

func TestDisconnectClosesChannel(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	local, remote, err := cl.OpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseChannel(d.Address(), local, remote); err != nil {
		t.Fatalf("CloseChannel() error = %v", err)
	}
	// The channel's machine must have passed through a disconnection or
	// closed back down.
	states := d.StatesVisited()
	backToClosed := false
	for _, s := range states {
		if s == sm.StateClosed {
			backToClosed = true
		}
	}
	if !backToClosed {
		t.Errorf("visited = %v, want CLOSED among them", states)
	}
}

func TestInvalidCIDRejects(t *testing.T) {
	// Strict profile: config request for a CID that was never allocated
	// must be rejected with "Invalid CID in request".
	_, d, cl := testRig(t, basicConfig(IOSProfile("4.2")))
	cl.Drain()
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x4242}, nil); err != nil {
		t.Fatal(err)
	}
	var rejects []*l2cap.CommandReject
	for _, cmd := range cl.DrainCommands() {
		if rej, ok := cmd.(*l2cap.CommandReject); ok {
			rejects = append(rejects, rej)
		}
	}
	if len(rejects) != 1 || rejects[0].Reason != l2cap.RejectInvalidCID {
		t.Fatalf("rejects = %+v, want one invalid-CID reject", rejects)
	}
}

func TestLenientStackProcessesUnknownCIDConfig(t *testing.T) {
	// BlueDroid-style lookup: with a channel mid-configuration, a config
	// request for a bogus CID is processed against it instead of being
	// rejected (vulns disabled so it survives).
	cfg := basicConfig(BlueDroidProfile("5.0", "fp"))
	cfg.DisableVulns = true
	_, d, cl := testRig(t, cfg)

	res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil || res.Result != l2cap.ConnResultSuccess {
		t.Fatalf("open: %v %v", res, err)
	}
	cl.Drain()
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x7B8F}, []byte{0xD2, 0x3A}); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cl.DrainCommands() {
		if rej, ok := cmd.(*l2cap.CommandReject); ok {
			t.Fatalf("lenient stack rejected with %v", rej.Reason)
		}
	}
}

func TestSignalingMTUExceededReject(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	cl.Drain()
	garbage := make([]byte, l2cap.DefaultSignalingMTU+100)
	if _, err := cl.SendCommand(d.Address(), &l2cap.EchoReq{}, garbage); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cmd := range cl.DrainCommands() {
		if rej, ok := cmd.(*l2cap.CommandReject); ok && rej.Reason == l2cap.RejectSignalingMTUExceeded {
			found = true
		}
	}
	if !found {
		t.Fatal("oversized signaling packet not rejected with MTU-exceeded")
	}
}

func TestStrayResponseBehaviourPerProfile(t *testing.T) {
	for _, tt := range []struct {
		name       string
		profile    Profile
		wantReject bool
	}{
		{"android tolerates", BlueDroidProfile("5.0", "fp"), false},
		{"windows rejects", WindowsProfile("5.0"), true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, d, cl := testRig(t, basicConfig(tt.profile))
			cl.Drain()
			if _, err := cl.SendCommand(d.Address(), &l2cap.ConnectionRsp{
				DCID: 0x40, SCID: 0x41, Result: l2cap.ConnResultSuccess,
			}, nil); err != nil {
				t.Fatal(err)
			}
			gotReject := false
			for _, cmd := range cl.DrainCommands() {
				if _, ok := cmd.(*l2cap.CommandReject); ok {
					gotReject = true
				}
			}
			if gotReject != tt.wantReject {
				t.Fatalf("reject = %v, want %v", gotReject, tt.wantReject)
			}
		})
	}
}

func TestLEOnlyCommandsPerProfile(t *testing.T) {
	sendLE := func(t *testing.T, d *Device, cl *host.Client) []l2cap.Command {
		t.Helper()
		cl.Drain()
		if _, err := cl.SendCommand(d.Address(), &l2cap.ConnParamUpdateReq{IntervalMin: 6, IntervalMax: 12}, nil); err != nil {
			t.Fatal(err)
		}
		return cl.DrainCommands()
	}
	t.Run("strict stack rejects", func(t *testing.T) {
		_, d, cl := testRig(t, basicConfig(WindowsProfile("5.0")))
		found := false
		for _, cmd := range sendLE(t, d, cl) {
			if rej, ok := cmd.(*l2cap.CommandReject); ok && rej.Reason == l2cap.RejectNotUnderstood {
				found = true
			}
		}
		if !found {
			t.Fatal("LE-only command not rejected on ACL-U by strict stack")
		}
	})
	t.Run("bluedroid drops silently", func(t *testing.T) {
		_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
		if got := sendLE(t, d, cl); len(got) != 0 {
			t.Fatalf("BlueDroid answered an LE command with %d packets, want silence", len(got))
		}
	})
}

func TestECREDPerProfile(t *testing.T) {
	req := &l2cap.CreditBasedConnReq{SPSM: 0x80, MTU: 64, MPS: 64, InitialCredits: 1, SCIDs: []l2cap.CID{0x40}}
	t.Run("supported stack refuses politely", func(t *testing.T) {
		_, d, cl := testRig(t, basicConfig(BlueZProfile("5.0", "fp")))
		cl.Drain()
		if _, err := cl.SendCommand(d.Address(), req, nil); err != nil {
			t.Fatal(err)
		}
		foundRsp := false
		for _, cmd := range cl.DrainCommands() {
			if rsp, ok := cmd.(*l2cap.CreditBasedConnRsp); ok && rsp.Result == 0x0002 {
				foundRsp = true
			}
		}
		if !foundRsp {
			t.Fatal("ECRED-capable stack did not answer with SPSM-not-supported")
		}
	})
	t.Run("old stack does not understand", func(t *testing.T) {
		_, d, cl := testRig(t, basicConfig(BlueDroidProfile("4.2", "fp")))
		cl.Drain()
		if _, err := cl.SendCommand(d.Address(), req, nil); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, cmd := range cl.DrainCommands() {
			if rej, ok := cmd.(*l2cap.CommandReject); ok && rej.Reason == l2cap.RejectNotUnderstood {
				found = true
			}
		}
		if !found {
			t.Fatal("non-ECRED stack did not reject")
		}
	})
}

func TestMoveChannelFlow(t *testing.T) {
	cfg := basicConfig(BlueDroidProfile("5.0", "fp"))
	cfg.DisableVulns = true
	_, d, cl := testRig(t, cfg)
	_, remote, err := cl.OpenChannel(d.Address(), l2cap.PSMAVDTP)
	if err != nil {
		t.Fatal(err)
	}
	cl.Drain()
	if _, err := cl.SendCommand(d.Address(), &l2cap.MoveChannelReq{ICID: remote}, nil); err != nil {
		t.Fatal(err)
	}
	gotMoveRsp := false
	for _, cmd := range cl.DrainCommands() {
		if rsp, ok := cmd.(*l2cap.MoveChannelRsp); ok && rsp.Result == l2cap.MoveResultSuccess {
			gotMoveRsp = true
		}
	}
	if !gotMoveRsp {
		t.Fatal("move request not answered with success")
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.MoveChannelConfirmReq{ICID: remote, Result: l2cap.MoveResultSuccess}, nil); err != nil {
		t.Fatal(err)
	}
	gotConfirm := false
	for _, cmd := range cl.DrainCommands() {
		if _, ok := cmd.(*l2cap.MoveChannelConfirmRsp); ok {
			gotConfirm = true
		}
	}
	if !gotConfirm {
		t.Fatal("move confirmation not acknowledged")
	}
	// WAIT_MOVE and WAIT_MOVE_CONFIRM must be among the visited states.
	want := map[sm.State]bool{sm.StateWaitMove: false, sm.StateWaitMoveConfirm: false}
	for _, s := range d.StatesVisited() {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("state %v never visited during move", s)
		}
	}
}

func TestBlueDroidVulnerabilityFiresAndDoSesDevice(t *testing.T) {
	cfg := basicConfig(BlueDroidProfile("5.0",
		"google/blueline/blueline:11/RQ1D.210105.003/7005430:user/release-keys",
		BlueDroidCCBNullDeref(0x40, 1, false)))
	_, d, cl := testRig(t, cfg)

	res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMSDP)
	if err != nil || res.Result != l2cap.ConnResultSuccess {
		t.Fatalf("open: %+v %v", res, err)
	}
	cl.Drain()
	// The paper's packet: Config Req, DCID low byte 0x40 (unallocated),
	// garbage tail.
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x1240}, []byte{0xD2, 0x3A, 0x91, 0x0E}); err != nil {
		t.Fatal(err)
	}
	if !d.Crashed() || !d.ServiceDown() {
		t.Fatal("defect did not fire")
	}
	dump := d.CrashDump()
	if dump == nil || dump.Kind != DumpTombstone {
		t.Fatalf("dump = %+v, want tombstone", dump)
	}
	text := dump.Render()
	for _, want := range []string{"l2c_csm_execute", "null pointer dereference", "blueline"} {
		if !strings.Contains(text, want) {
			t.Errorf("tombstone missing %q:\n%s", want, text)
		}
	}
	// Ping now fails: the Bluetooth service is gone.
	if err := cl.Ping(d.Address()); err == nil {
		t.Fatal("ping succeeded against a DoS-ed device")
	}
}

func TestVulnerabilityRequiresGarbageTail(t *testing.T) {
	cfg := basicConfig(BlueDroidProfile("5.0", "fp", BlueDroidCCBNullDeref(0x40, 1, true)))
	_, d, cl := testRig(t, cfg)
	res, err := cl.TryOpenChannel(d.Address(), l2cap.PSMSDP)
	if err != nil || res.Result != l2cap.ConnResultSuccess {
		t.Fatal(err)
	}
	// Same packet without the tail: survives.
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x1240}, nil); err != nil {
		t.Fatal(err)
	}
	if d.Crashed() {
		t.Fatal("defect fired without a garbage tail")
	}
}

func TestDisableVulnsSuppressesCrash(t *testing.T) {
	cfg := basicConfig(BlueDroidProfile("5.0", "fp", BlueDroidCCBNullDeref(0x40, 1, true)))
	cfg.DisableVulns = true
	_, d, cl := testRig(t, cfg)
	res, _ := cl.TryOpenChannel(d.Address(), l2cap.PSMSDP)
	if res.Result != l2cap.ConnResultSuccess {
		t.Fatal("open failed")
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x1240}, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if d.Crashed() {
		t.Fatal("disabled defect fired anyway")
	}
}

func TestRTKitCrashRemovesDeviceFromAir(t *testing.T) {
	cfg := basicConfig(RTKitProfile("4.2", RTKitPSMServiceKill(0, 0)))
	m, d, cl := testRig(t, cfg)
	cl.Drain()
	// Odd-band abnormal PSM (0x0101 is in the 0x0100 band and odd).
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConnectionReq{PSM: 0x0101, SCID: 0x0040}, nil); err != nil {
		t.Fatal(err)
	}
	if !d.PoweredOff() {
		t.Fatal("RTKit defect did not power the device off")
	}
	// The device vanished: inquiry no longer sees it, pages fail.
	if got := cl.Inquiry(); len(got) != 0 {
		t.Fatalf("inquiry still sees %d devices", len(got))
	}
	_ = m
}

func TestResetRestoresCrashedDevice(t *testing.T) {
	cfg := basicConfig(BlueDroidProfile("5.0", "fp", BlueDroidCCBNullDeref(0x40, 1, true)))
	_, d, cl := testRig(t, cfg)
	res, _ := cl.TryOpenChannel(d.Address(), l2cap.PSMSDP)
	if res.Result != l2cap.ConnResultSuccess {
		t.Fatal("open failed")
	}
	if _, err := cl.SendCommand(d.Address(), &l2cap.ConfigurationReq{DCID: 0x1240}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if !d.Crashed() {
		t.Fatal("defect did not fire")
	}
	d.Reset()
	if d.Crashed() || d.CrashDump() != nil {
		t.Fatal("Reset did not clear crash state")
	}
	// The device answers again after a fresh page.
	cl.Disconnect(d.Address())
	if err := cl.Connect(d.Address()); err != nil {
		t.Fatalf("reconnect after reset: %v", err)
	}
	if err := cl.Ping(d.Address()); err != nil {
		t.Fatalf("ping after reset: %v", err)
	}
}

func TestCatalogShape(t *testing.T) {
	entries := Catalog(false)
	if len(entries) != 8 {
		t.Fatalf("catalog has %d devices, want 8", len(entries))
	}
	wantVuln := map[string]bool{"D1": true, "D2": true, "D3": true, "D5": true, "D8": true}
	seen := make(map[string]bool)
	for _, e := range entries {
		if seen[e.ID] {
			t.Errorf("duplicate catalog ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.ExpectVuln != wantVuln[e.ID] {
			t.Errorf("%s: ExpectVuln = %v, want %v (Table VI)", e.ID, e.ExpectVuln, wantVuln[e.ID])
		}
		if e.ExpectVuln == (len(e.Config.Profile.Vulns) == 0) {
			t.Errorf("%s: vuln specs inconsistent with expectation", e.ID)
		}
		if e.Config.Addr != e.Addr {
			t.Errorf("%s: config address mismatch", e.ID)
		}
	}
	// D5 exposes 6 ports and D8 13 ports (§IV-B elapsed-time analysis).
	for _, tt := range []struct {
		id   string
		want int
	}{{"D5", 6}, {"D8", 13}} {
		e, err := CatalogEntryByID(tt.id, false)
		if err != nil {
			t.Fatal(err)
		}
		m := radio.NewMedium(nil, radio.DefaultTiming())
		d, err := New(m, e.Config)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(d.Ports()); got != tt.want {
			t.Errorf("%s exposes %d ports, want %d", tt.id, got, tt.want)
		}
	}
	if _, err := CatalogEntryByID("D9", false); err == nil {
		t.Error("CatalogEntryByID(D9) should fail")
	}
}

func TestCatalogDevicesAllInstantiable(t *testing.T) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	for _, e := range Catalog(true) {
		d, err := New(m, e.Config)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if d.Name() == "" {
			t.Errorf("%s has empty name", e.ID)
		}
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:01"), "tester")
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Inquiry(); len(got) != 8 {
		t.Fatalf("inquiry found %d devices, want 8", len(got))
	}
}

func TestHandlerCoverage(t *testing.T) {
	_, d, cl := testRig(t, basicConfig(BlueDroidProfile("5.0", "fp")))
	if err := cl.Ping(d.Address()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QuerySDP(d.Address()); err != nil {
		t.Fatal(err)
	}
	cov := d.HandlerCoverage()
	if cov["EchoReq"] == 0 {
		t.Error("echo handler not counted")
	}
	if cov["ConnectionReq"] == 0 || cov["SDP"] == 0 {
		t.Errorf("SDP transaction handlers not counted: %v", cov)
	}
	// The copy must not alias internal state.
	cov["EchoReq"] = 999
	if d.HandlerCoverage()["EchoReq"] == 999 {
		t.Error("HandlerCoverage returned an aliased map")
	}
}

func TestCrashDumpRenderKinds(t *testing.T) {
	base := CrashDump{
		Time:        1500 * 1e6, // 1.5s
		VulnID:      "test-vuln",
		Fingerprint: "vendor/device:1.0/fp",
		FaultFunc:   "some_function+123",
		Trigger:     "test packet",
	}
	tombstone := base
	tombstone.Kind = DumpTombstone
	gp := base
	gp.Kind = DumpGPFault
	none := base
	none.Kind = DumpNone

	tests := []struct {
		name string
		dump CrashDump
		want []string
	}{
		{"tombstone", tombstone, []string{"SIGSEGV", "null pointer dereference", "vendor/device:1.0/fp", "some_function+123"}},
		{"gp fault", gp, []string{"general protection fault", "some_function+123", "test packet"}},
		{"none", none, []string{"no crash artefact", "test-vuln"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			text := tt.dump.Render()
			for _, want := range tt.want {
				if !strings.Contains(text, want) {
					t.Errorf("render missing %q:\n%s", want, text)
				}
			}
		})
	}
}

func TestCrashClassAndDumpKindStrings(t *testing.T) {
	if ClassDoS.String() != "DoS" || ClassCrash.String() != "Crash" {
		t.Error("CrashClass strings wrong")
	}
	if CrashClass(99).String() == "" {
		t.Error("unknown CrashClass has empty string")
	}
}

func TestRepliesReuseDeviceValues(t *testing.T) {
	// Every reply is built in a device-owned value: consecutive replies
	// of different kinds and reasons must each carry exactly their own
	// bytes, and a steady stream of them must not allocate.
	cfg := basicConfig(IOSProfile("4.2"))
	cfg.DisableVulns = true
	_, d, cl := testRig(t, cfg)
	undecodable := l2cap.SignalPacket(7, &l2cap.EchoReq{}, nil)
	undecodable.Payload[2] = 0xFF // declared data length overruns
	requests := []struct {
		cmd  l2cap.Command // sent with SendCommand; nil sends undecodable
		want l2cap.Command
	}{
		{&l2cap.ConfigurationReq{DCID: 0x4242}, l2cap.NewInvalidCIDReject(0, 0x4242)},
		{nil, &l2cap.CommandReject{Reason: l2cap.RejectNotUnderstood}},
		{&l2cap.DisconnectionReq{DCID: 0x4343, SCID: 0x0041}, l2cap.NewInvalidCIDReject(0x4343, 0x0041)},
		{&l2cap.EchoReq{Data: []byte("abc")}, &l2cap.EchoRsp{Data: []byte("abc")}},
		{&l2cap.InformationReq{InfoType: l2cap.InfoTypeConnectionlessMTU},
			&l2cap.InformationRsp{InfoType: l2cap.InfoTypeConnectionlessMTU, Result: l2cap.InfoResultSuccess, Data: []byte{0xA0, 0x02}}},
	}
	send := func(cmd l2cap.Command) error {
		if cmd == nil {
			return cl.Send(d.Address(), undecodable)
		}
		_, err := cl.SendCommand(d.Address(), cmd, nil)
		return err
	}
	for round := 0; round < 2; round++ {
		for i, req := range requests {
			cl.Drain()
			if err := send(req.cmd); err != nil {
				t.Fatal(err)
			}
			got := cl.DrainCommands()
			if len(got) != 1 || got[0].Code() != req.want.Code() ||
				string(got[0].MarshalData()) != string(req.want.MarshalData()) {
				t.Fatalf("round %d request %d: replies %+v, want one %+v", round, i, got, req.want)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, req := range requests {
			_ = send(req.cmd)
			cl.Drain()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per round of %d requests and replies, want 0", allocs, len(requests))
	}
}
