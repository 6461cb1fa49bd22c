package device

import (
	"bytes"
	"math/rand"
	"testing"

	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
)

// TestSDPCachedResponseMatchesBuild pins the SDP server's cached answer:
// for every catalog device and any transaction ID, the reply Handle
// returns is byte-identical to a freshly built attribute response, also
// after error responses and answers to other transactions.
func TestSDPCachedResponseMatchesBuild(t *testing.T) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	rng := rand.New(rand.NewSource(14))
	for _, e := range Catalog(false) {
		d, err := New(m, e.Config)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		services := sdpServices(d.ports)
		txns := []uint16{0, 1, 0xFFFF}
		for range 64 {
			txns = append(txns, uint16(rng.Intn(0x10000)))
		}
		for i, txn := range txns {
			if i%3 == 1 {
				d.sdpSrv.Handle([]byte{0xFF}) // an error response in between
			}
			got := d.sdpSrv.Handle(sdp.NewServiceSearchAttributeReq(txn).Marshal())
			want := sdp.BuildAttributeResponse(txn, services).Marshal()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s txn %#04x: cached reply\n %x\nwant\n %x", e.ID, txn, got, want)
			}
		}
		if d.sdpSrv.Crashed() {
			t.Fatalf("%s: valid requests crashed the SDP server", e.ID)
		}
	}
}
