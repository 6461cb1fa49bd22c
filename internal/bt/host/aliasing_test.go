package host_test

// Aliasing/reuse regression tests for the packet path: anything a
// component retains past its ownership window must be a copy, so
// mutating released or reused buffers must never reach it. These tests
// deliberately hammer the reuse paths (scratch marshal buffers, the
// client's inbox arenas) after taking snapshots, and fail if a snapshot
// moves.

import (
	"bytes"
	"testing"

	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

// TestRecordedWireSurvivesScratchReuse pins the recorder's copy
// semantics: the trace stores wire bytes that outlive the client's
// reused marshal scratch, so later sends — which overwrite that scratch
// — must not reach recorded ops.
func TestRecordedWireSurvivesScratchReuse(t *testing.T) {
	cl, rec, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	first := l2cap.SignalPacket(1, &l2cap.EchoReq{Data: []byte("first-packet")}, []byte{0xAA, 0xBB})
	if err := cl.Send(target, first); err != nil {
		t.Fatal(err)
	}
	ops, _ := rec.Snapshot()
	if len(ops) != 2 || ops[1].Kind != host.TraceSend {
		t.Fatalf("unexpected ops %v", ops)
	}
	pinned := append([]byte(nil), ops[1].Data...)

	// Hammer the scratch-reusing send path with different contents.
	for i := 0; i < 64; i++ {
		pkt := l2cap.SignalPacket(uint8(i%250+2), &l2cap.EchoReq{Data: bytes.Repeat([]byte{byte(i)}, 32)}, nil)
		if err := cl.Send(target, pkt); err != nil {
			t.Fatal(err)
		}
		cl.Drain()
	}

	ops2, _ := rec.Snapshot()
	if !bytes.Equal(ops2[1].Data, pinned) {
		t.Fatalf("recorded wire bytes changed under scratch reuse:\n got %x\nwant %x", ops2[1].Data, pinned)
	}
	if !bytes.Equal(pinned, first.Marshal()) {
		t.Fatalf("recorded wire bytes differ from the packet's marshal")
	}
}

// echoRound sends one Echo Request per data block and returns the
// drained responses.
func echoRound(t *testing.T, cl *host.Client, target radio.BDAddr, data ...[]byte) []l2cap.Packet {
	t.Helper()
	for _, d := range data {
		if _, err := cl.SendCommand(target, &l2cap.EchoReq{Data: d}, nil); err != nil {
			t.Fatal(err)
		}
	}
	batch := cl.Drain()
	if len(batch) != len(data) {
		t.Fatalf("drained %d packets, want %d", len(batch), len(data))
	}
	return batch
}

// sigHeaderSize is a signaling command's header (code, identifier,
// length) ahead of its data in a drained payload.
const sigHeaderSize = 4

// samePayloadStorage reports whether two non-empty payloads start at
// the same byte: the later one was written into the earlier's storage.
func samePayloadStorage(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestDrainBatchStableUntilNextDrain pins the Drain ownership window: a
// drained batch stays intact while new responses arrive and through the
// next Drain, and only the Drain after next hands its storage to new
// traffic. Copies taken inside the window survive that reuse.
func TestDrainBatchStableUntilNextDrain(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	// Grow both inbox arenas past this test's traffic first: a batch
	// that outgrows its arena moves to a new array, and the payloads
	// before the move would never be reused.
	bulk := make([][]byte, 32)
	for i := range bulk {
		bulk[i] = bytes.Repeat([]byte{0xEE}, 48)
	}
	echoRound(t, cl, target, bulk...)
	echoRound(t, cl, target, bulk...)

	batch := echoRound(t, cl, target,
		[]byte("round-one"), bytes.Repeat([]byte{0x11}, 40))
	// held keeps the payload slices themselves: the packet slice Drain
	// returns is reused too, so its entries cannot witness the reuse.
	held := make([][]byte, len(batch))
	snap := make([][]byte, len(batch))
	for i, pkt := range batch {
		held[i] = pkt.Payload
		snap[i] = append([]byte(nil), pkt.Payload...)
	}

	// New traffic arrives while the batch is still borrowed: it must not
	// touch the batch (deliveries go to the other inbox arena).
	for _, d := range bulk {
		if _, err := cl.SendCommand(target, &l2cap.EchoReq{Data: d}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, pkt := range batch {
		if !bytes.Equal(pkt.Payload, snap[i]) {
			t.Fatalf("drained packet %d changed while borrowed", i)
		}
	}

	// The next Drain ends the window; the batch after it lands in the
	// first batch's storage, with different contents.
	cl.Drain()
	next := [][]byte{bytes.Repeat([]byte{0x5A}, 9), bytes.Repeat([]byte{0xA5}, 40)}
	reused := echoRound(t, cl, target, next...)
	for i := range held {
		if !samePayloadStorage(held[i], reused[i].Payload) {
			t.Fatalf("packet %d: the Drain after next did not reuse the first batch's storage", i)
		}
		if got := held[i][sigHeaderSize:]; !bytes.Equal(got, next[i]) {
			t.Fatalf("packet %d: reused storage holds %x, want the new echo %x", i, got, next[i])
		}
	}
	if got := snap[0][sigHeaderSize:]; !bytes.Equal(got, []byte("round-one")) {
		t.Fatalf("pinned copy changed under reuse: echo data %q, want %q", got, "round-one")
	}
	if got := snap[1][sigHeaderSize:]; !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 40)) {
		t.Fatalf("pinned copy changed under reuse: echo data %x", got)
	}
}

// TestReleasedBufferMutationDoesNotReachRetainedFrames is the direct
// "mutate a released buffer" regression on the decoded path: a command
// from DrainCommands aliases its drained payload, a copy of its data is
// retained, and the client's own reuse of that payload's storage must
// leave the copy untouched.
func TestReleasedBufferMutationDoesNotReachRetainedFrames(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	want := []byte("retained")
	if _, err := cl.SendCommand(target, &l2cap.EchoReq{Data: want}, nil); err != nil {
		t.Fatal(err)
	}
	cmds := cl.DrainCommands()
	if len(cmds) != 1 {
		t.Fatalf("decoded %d commands, want 1", len(cmds))
	}
	rsp, ok := cmds[0].(*l2cap.EchoRsp)
	if !ok {
		t.Fatalf("decoded %T, want *l2cap.EchoRsp", cmds[0])
	}
	borrowed := rsp.Data
	retained := append([]byte(nil), borrowed...) // the "must copy" rule

	cl.Drain() // releases the batch
	scribble := bytes.Repeat([]byte{0xFF}, len(want))
	if _, err := cl.SendCommand(target, &l2cap.EchoReq{Data: scribble}, nil); err != nil {
		t.Fatal(err)
	}
	cl.Drain() // the next batch now sits in the released storage
	if !bytes.Equal(borrowed, scribble) {
		t.Fatalf("released payload reads %x, want the next batch's %x: storage was not reused", borrowed, scribble)
	}
	if !bytes.Equal(retained, want) {
		t.Fatalf("retained copy changed to %q after its source was reused", retained)
	}
}

// TestDrainedPayloadAppendStaysInside pins the clamped capacity of an
// inbox payload: appending to one payload of a batch reallocates instead
// of overwriting the payload stored after it.
func TestDrainedPayloadAppendStaysInside(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	batch := echoRound(t, cl, target, []byte("first"), []byte("second"))
	next := append([]byte(nil), batch[1].Payload...)
	if cap(batch[0].Payload) != len(batch[0].Payload) {
		t.Fatalf("payload capacity %d exceeds its length %d", cap(batch[0].Payload), len(batch[0].Payload))
	}
	grown := append(batch[0].Payload, bytes.Repeat([]byte{0xCC}, 64)...)
	if samePayloadStorage(grown, batch[0].Payload) {
		t.Fatal("append grew the payload in place")
	}
	if !bytes.Equal(batch[1].Payload, next) {
		t.Fatalf("appending to payload 0 changed payload 1: %x, want %x", batch[1].Payload, next)
	}
}

// TestSendDrainSteadyStateAllocs pins the client's share of the
// packet path: once the inbox arenas and scratch buffers have grown to
// the traffic's size, a Send → Drain round allocates nothing.
func TestSendDrainSteadyStateAllocs(t *testing.T) {
	cl, _, target := recordRig(t, 0)
	cl.SetRecorder(nil) // the recorder copies every frame by design
	if err := cl.Connect(target); err != nil {
		t.Fatal(err)
	}
	pkt := l2cap.SignalPacket(1, &l2cap.EchoReq{Data: bytes.Repeat([]byte{0x42}, 32)}, nil)
	round := func() {
		if err := cl.Send(target, pkt); err != nil {
			t.Fatal(err)
		}
		if len(cl.Drain()) != 1 {
			t.Fatal("no echo response drained")
		}
	}
	for range 4 {
		round() // warm-up: both arenas and the packet slices grow once
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state Send → Drain allocates %.2f times per round, want 0", allocs)
	}
}
