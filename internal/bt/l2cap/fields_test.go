package l2cap

import (
	"slices"
	"testing"
)

func TestEveryCommandHasFieldClassification(t *testing.T) {
	for _, code := range AllCommandCodes() {
		if Fields(code) == nil {
			t.Errorf("Fields(%v) = nil; every command needs a classification", code)
		}
	}
	if Fields(0x7F) != nil {
		t.Error("Fields(unknown) should be nil")
	}
}

func TestFieldClassificationMatchesPaperFigure6(t *testing.T) {
	// MC = {PSM, SCID, DCID, ICID, CONT_ID}; everything else in command
	// data is MA. Spot-check the commands named in the paper.
	tests := []struct {
		code    CommandCode
		mcNames []string
	}{
		{CodeConnectionReq, []string{"PSM", "SCID"}},
		{CodeConnectionRsp, []string{"DCID", "SCID"}},
		{CodeConfigurationReq, []string{"DCID"}},
		{CodeConfigurationRsp, []string{"SCID"}},
		{CodeCreateChannelReq, []string{"PSM", "SCID", "CONT_ID"}},
		{CodeMoveChannelReq, []string{"ICID", "CONT_ID"}},
		{CodeEchoReq, nil},
		{CodeInformationReq, nil},
		{CodeConnParamUpdateReq, nil},
	}
	for _, tt := range tests {
		var got []string
		for _, f := range Fields(tt.code) {
			if f.Class == FieldMutableCore {
				got = append(got, f.Name)
			}
		}
		if len(got) != len(tt.mcNames) {
			t.Errorf("%v: MC fields = %v, want %v", tt.code, got, tt.mcNames)
			continue
		}
		for i := range got {
			if got[i] != tt.mcNames[i] {
				t.Errorf("%v: MC field[%d] = %q, want %q", tt.code, i, got[i], tt.mcNames[i])
			}
		}
	}
}

func TestCoreFieldsAgreeWithClassification(t *testing.T) {
	// For every command, the CoreFields exposed by the concrete struct
	// must be non-empty exactly when the classification table lists an MC
	// field.
	for _, cmd := range sampleCommands() {
		code := cmd.Code()
		wantCore := HasCoreFields(code)
		gotCore := !cmd.CoreFields().Empty()
		if wantCore != gotCore {
			t.Errorf("%v: CoreFields().Empty() = %v but classification HasCoreFields = %v",
				code, !gotCore, wantCore)
		}
	}
}

func TestCoreFieldsMutateInPlace(t *testing.T) {
	req := &ConnectionReq{PSM: PSMSDP, SCID: 0x0040}
	core := req.CoreFields()
	*core.PSM = 0x0100
	*core.CID(0) = 0x1234
	if req.PSM != 0x0100 || req.SCID != 0x1234 {
		t.Fatalf("mutation through CoreFields did not reach the struct: %+v", req)
	}
	data := req.MarshalData()
	if getU16(data, 0) != 0x0100 || getU16(data, 2) != 0x1234 {
		t.Fatalf("marshaled data does not reflect mutation: %x", data)
	}
}

func TestFieldClassString(t *testing.T) {
	tests := []struct {
		class FieldClass
		want  string
	}{
		{FieldFixed, "F"},
		{FieldDependent, "D"},
		{FieldMutableCore, "MC"},
		{FieldMutableApp, "MA"},
	}
	for _, tt := range tests {
		if got := tt.class.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.class, got, tt.want)
		}
	}
}

func TestAbnormalPSMRangesMatchTableIV(t *testing.T) {
	ranges := AbnormalPSMRanges()
	if len(ranges) != 7 {
		t.Fatalf("len(ranges) = %d, want 7", len(ranges))
	}
	// Band starts per Table IV.
	wantLo := []PSM{0x0100, 0x0300, 0x0500, 0x0700, 0x0900, 0x0B00, 0x0D00}
	for i, r := range ranges {
		if r.Lo != wantLo[i] || r.Hi != wantLo[i]+0xFF {
			t.Errorf("range[%d] = [%04X, %04X], want [%04X, %04X]",
				i, uint16(r.Lo), uint16(r.Hi), uint16(wantLo[i]), uint16(wantLo[i]+0xFF))
		}
	}
}

func TestIsAbnormalPSM(t *testing.T) {
	tests := []struct {
		psm  PSM
		want bool
	}{
		{PSMSDP, false},    // 0x0001: valid SDP port
		{PSMRFCOMM, false}, // 0x0003
		{0x0002, true},     // even
		{0x0100, true},     // band start (even too)
		{0x0101, true},     // inside 0x0100 band, odd
		{0x01FF, true},     // band end
		{0x0201, false},    // odd, outside bands, well-formed
		{0x0B7F, true},     // inside 0x0B00 band
		{0x1001, false},    // dynamic PSM start
		{0x0D01, true},     // inside 0x0D00 band
	}
	for _, tt := range tests {
		if got := IsAbnormalPSM(tt.psm); got != tt.want {
			t.Errorf("IsAbnormalPSM(%04X) = %v, want %v", uint16(tt.psm), got, tt.want)
		}
	}
}

func TestPSMWellFormedness(t *testing.T) {
	tests := []struct {
		psm  PSM
		want bool
	}{
		{0x0001, true},
		{0x0003, true},
		{0x1001, true},
		{0x0002, false}, // even LSB octet
		{0x0101, false}, // odd MSB octet
		{0xFF01, false}, // odd MSB octet
	}
	for _, tt := range tests {
		if got := tt.psm.IsWellFormed(); got != tt.want {
			t.Errorf("PSM(%04X).IsWellFormed() = %v, want %v", uint16(tt.psm), got, tt.want)
		}
	}
}

func TestCIDRanges(t *testing.T) {
	if CIDSignaling.IsDynamic() {
		t.Error("signaling CID must not be dynamic")
	}
	if !CIDSignaling.IsReserved() {
		t.Error("signaling CID must be reserved")
	}
	if !CID(0x0040).IsDynamic() {
		t.Error("0x0040 must be dynamic")
	}
	lo, hi := CIDPRange()
	if lo != 0x0040 || hi != 0xFFFF {
		t.Errorf("CIDPRange() = [%v, %v], want [0x0040, 0xFFFF]", lo, hi)
	}
}

func TestCoreFieldsCIDsInWireOrder(t *testing.T) {
	// Every channel-ID field is reachable through CID(i), fixed fields
	// and enhanced credit-based lists alike, in wire order.
	cases := []struct {
		cmd  Command
		want []CID
	}{
		{&ConnectionReq{PSM: PSMSDP, SCID: 0x0040}, []CID{0x0040}},
		{&ConnectionRsp{DCID: 0x0041, SCID: 0x0042}, []CID{0x0041, 0x0042}},
		{&DisconnectionReq{DCID: 0x0043, SCID: 0x0044}, []CID{0x0043, 0x0044}},
		{&MoveChannelReq{ICID: 0x0045}, []CID{0x0045}},
		{&CreditBasedConnReq{SCIDs: []CID{0x0046, 0x0047, 0x0048, 0x0049, 0x004A}},
			[]CID{0x0046, 0x0047, 0x0048, 0x0049, 0x004A}},
		{&CreditBasedReconfReq{}, nil},
		{&EchoReq{}, nil},
	}
	for _, tc := range cases {
		core := tc.cmd.CoreFields()
		var got []CID
		for i := range core.NumCIDs() {
			got = append(got, *core.CID(i))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v: CIDs = %v, want %v", tc.cmd.Code(), got, tc.want)
		}
	}
	ecred := &CreditBasedConnRsp{DCIDs: []CID{1, 2}}
	core := ecred.CoreFields()
	*core.CID(1) = 0x0077
	if ecred.DCIDs[1] != 0x0077 {
		t.Fatalf("mutation through CID(1) did not reach the list: %v", ecred.DCIDs)
	}
}

func TestCoreFieldsDoNotAllocate(t *testing.T) {
	// The mutator and the trace sniffer ask every packet for its core
	// fields, so building and walking them must not allocate.
	cmds := sampleCommands()
	var sink CID
	allocs := testing.AllocsPerRun(100, func() {
		for _, cmd := range cmds {
			core := cmd.CoreFields()
			if core.PSM != nil {
				sink += CID(*core.PSM)
			}
			for i := range core.NumCIDs() {
				sink += *core.CID(i)
			}
			if core.ControllerID != nil {
				sink += CID(*core.ControllerID)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CoreFields over %d commands: %v allocs/run, want 0", len(cmds), allocs)
	}
	_ = sink
}
