package device_test

import (
	"maps"
	"slices"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/core"
	"l2fuzz/internal/fuzzers/bfuzz"
	"l2fuzz/internal/testbed"
)

// TestHandlerCoveragePinned runs L2Fuzz then BFuzz with fixed seeds
// against a measurement-grade D2 and compares the device's per-handler
// hit counts with a pinned literal, so the counter layout behind
// HandlerCoverage can change without changing what it reports.
func TestHandlerCoveragePinned(t *testing.T) {
	spec, err := device.CatalogSpec("D2", true)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := testbed.New(spec, testbed.Options{DisableVulns: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(7)
	cfg.MaxPackets = 6000
	if _, err := core.New(rig.Client, cfg).Run(rig.Device.Address()); err != nil {
		t.Fatal(err)
	}
	if _, err := bfuzz.New(rig.Client, 7).Run(rig.Device.Address(), 6000); err != nil {
		t.Fatal(err)
	}
	got := rig.Device.HandlerCoverage()
	want := map[string]int{
		"CommandReject":         128,
		"ConfigurationReq":      538,
		"ConfigurationRsp":      558,
		"ConnParamUpdateReq":    128,
		"ConnParamUpdateRsp":    128,
		"ConnectionReq":         239,
		"ConnectionRsp":         192,
		"CreateChannelReq":      128,
		"CreateChannelRsp":      128,
		"CreditBasedConnReq":    128,
		"CreditBasedConnRsp":    128,
		"CreditBasedReconfReq":  128,
		"CreditBasedReconfRsp":  128,
		"DisconnectionReq":      145,
		"DisconnectionRsp":      128,
		"EchoReq":               1657,
		"EchoRsp":               128,
		"FlowControlCredit":     128,
		"InformationReq":        128,
		"InformationRsp":        128,
		"LECreditConnReq":       128,
		"LECreditConnRsp":       128,
		"MoveChannelConfirmReq": 192,
		"MoveChannelConfirmRsp": 192,
		"MoveChannelReq":        193,
		"MoveChannelRsp":        192,
		"SDP":                   1,
		"undecodable":           45,
	}
	if !maps.Equal(got, want) {
		keys := slices.Sorted(maps.Keys(got))
		for _, k := range keys {
			t.Logf("%q: %d,", k, got[k])
		}
		t.Errorf("HandlerCoverage() differs from the pin")
	}
}
