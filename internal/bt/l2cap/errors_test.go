package l2cap

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// TestCommandCodeStringAllCodes pins String for every byte value: the 26
// defined names, and the CommandCode(0xNN) fallback everywhere else.
func TestCommandCodeStringAllCodes(t *testing.T) {
	names := []string{
		"CommandReject", "ConnectionReq", "ConnectionRsp", "ConfigurationReq",
		"ConfigurationRsp", "DisconnectionReq", "DisconnectionRsp", "EchoReq",
		"EchoRsp", "InformationReq", "InformationRsp", "CreateChannelReq",
		"CreateChannelRsp", "MoveChannelReq", "MoveChannelRsp",
		"MoveChannelConfirmReq", "MoveChannelConfirmRsp", "ConnParamUpdateReq",
		"ConnParamUpdateRsp", "LECreditConnReq", "LECreditConnRsp",
		"FlowControlCredit", "CreditBasedConnReq", "CreditBasedConnRsp",
		"CreditBasedReconfReq", "CreditBasedReconfRsp",
	}
	for c := 0; c < 256; c++ {
		want := fmt.Sprintf("CommandCode(0x%02X)", c)
		if c >= 1 && c <= len(names) {
			want = names[c-1]
		}
		if got := CommandCode(c).String(); got != want {
			t.Errorf("CommandCode(%d).String() = %q, want %q", c, got, want)
		}
	}
}

// TestRejectPathErrors pins the sentinel identity and the exact message
// of every decode error the reject path produces.
func TestRejectPathErrors(t *testing.T) {
	short := []byte{0x02}
	overrun := []byte{0x02, 0x01, 0xFF, 0x00}
	firstErr := func(_ any, err error) error { return err }
	var dec Decoder
	cases := []struct {
		name     string
		err      error
		sentinel error
		text     string
	}{
		{"AppendSignals short header", firstErr(AppendSignals(nil, short)), ErrShortCommand,
			"l2cap: signaling payload shorter than command header: got 1 bytes"},
		{"AppendSignals data overrun", firstErr(AppendSignals(nil, overrun)), ErrDataLength,
			"l2cap: command data length exceeds payload: declared 255, available 0"},
		{"UnmarshalFrame short header", firstErr(UnmarshalFrame(short)), ErrShortCommand,
			"l2cap: signaling payload shorter than command header: got 1 bytes"},
		{"UnmarshalFrame data overrun", firstErr(UnmarshalFrame(overrun)), ErrDataLength,
			"l2cap: command data length exceeds payload: declared 255, available 0"},
		{"Decoder unknown code", firstErr(dec.Decode(Frame{Code: 0x99})), ErrUnknownCode,
			"l2cap: unknown command code: 0x99"},
		{"DecodeCommand unknown code", firstErr(DecodeCommand(Frame{Code: 0x1B})), ErrUnknownCode,
			"l2cap: unknown command code: 0x1B"},
		{"DefaultCommand unknown code", firstErr(DefaultCommand(0)), ErrUnknownCode,
			"l2cap: unknown command code: 0x00"},
		{"Decoder bad data", firstErr(dec.Decode(Frame{Code: CodeConnectionReq, Data: []byte{1}})), ErrBadCommand,
			"decode ConnectionReq: l2cap: malformed command data: ConnectionReq wants 4 data bytes, got 1"},
		{"ParsePacket short header", firstErr(ParsePacket([]byte{1, 2, 3})), ErrShortPacket,
			"l2cap: packet shorter than basic header: got 3 bytes"},
		{"ParsePacket length overrun", firstErr(ParsePacket([]byte{0x05, 0x00, 0x01, 0x00, 0xAA})), ErrLengthMismatch,
			"l2cap: declared payload length exceeds available bytes: declared 5, available 1"},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.sentinel) {
			t.Errorf("%s: error %v is not %v", tc.name, tc.err, tc.sentinel)
			continue
		}
		if got := tc.err.Error(); got != tc.text {
			t.Errorf("%s: Error() = %q, want %q", tc.name, got, tc.text)
		}
	}
}

// TestRejectPathAllocs bounds the cost of rejecting a malformed
// signaling payload: at most the one allocation of its error value.
func TestRejectPathAllocs(t *testing.T) {
	scratch := make([]Frame, 0, 4)
	var dec Decoder
	for name, payload := range map[string][]byte{
		"short header":  {0x02, 0x01},
		"data overrun":  {0x02, 0x01, 0x40, 0x00, 0xAA},
		"unknown code":  {0x99, 0x01, 0x00, 0x00},
		"trailing tail": {0x08, 0x01, 0x00, 0x00, 0x01},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			frames, err := AppendSignals(scratch[:0], payload)
			if err != nil {
				return
			}
			for _, f := range frames {
				_, _ = dec.Decode(f)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: rejecting allocates %.1f times per payload, want <= 1", name, allocs)
		}
	}
}

// TestSplitSignalsMatchesAppendSignals checks the branch-only splitter
// against AppendSignals: the same frames, and a failure exactly when
// AppendSignals reports an error.
func TestSplitSignalsMatchesAppendSignals(t *testing.T) {
	f := func(raw []byte) bool {
		want, err := AppendSignals(nil, raw)
		got, ok := SplitSignals(nil, raw)
		return ok == (err == nil) && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitSignalsRejectsWithoutAllocating: splitting a malformed
// signaling payload builds no error value.
func TestSplitSignalsRejectsWithoutAllocating(t *testing.T) {
	scratch := make([]Frame, 0, 4)
	for name, payload := range map[string][]byte{
		"short header":  {0x02, 0x01},
		"data overrun":  {0x02, 0x01, 0x40, 0x00, 0xAA},
		"trailing tail": {0x08, 0x01, 0x00, 0x00, 0x01},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			scratch, _ = SplitSignals(scratch[:0], payload)
		})
		if allocs != 0 {
			t.Errorf("%s: splitting allocates %.1f times per payload, want 0", name, allocs)
		}
	}
}
