package hci

import (
	"errors"
	"testing"

	"l2fuzz/internal/bt/radio"
)

// TestDeadLinksStayDead tears a link down every way one can die and
// checks that the dead handle and the dead baseband link both keep
// failing with their sentinels, and that a fresh page works again.
func TestDeadLinksStayDead(t *testing.T) {
	frame := []byte{0x01, 0x00, 0x01, 0x00, 0xAA}
	cases := []struct {
		name string
		kill func(m *radio.Medium, a, b *Controller, h ConnHandle)
		// carryErr is what the medium reports for a frame a → b after
		// the kill.
		carryErr error
	}{
		{"local disconnect", func(_ *radio.Medium, a, _ *Controller, h ConnHandle) {
			if err := a.Disconnect(h); err != nil {
				t.Fatal(err)
			}
		}, radio.ErrNotConnected},
		{"medium drop", func(m *radio.Medium, a, b *Controller, _ ConnHandle) {
			m.Drop(a.Address(), b.Address())
		}, radio.ErrNotConnected},
		{"peer drops link", func(_ *radio.Medium, a, b *Controller, _ ConnHandle) {
			b.DropPeer(a.Address())
		}, radio.ErrNotConnected},
		{"peer unregistered", func(m *radio.Medium, _, b *Controller, _ ConnHandle) {
			m.Unregister(b.Address())
		}, radio.ErrUnknownAddress},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, a, b := twoControllers(t)
			var lost []ConnHandle
			a.SetDisconnectHandler(func(h ConnHandle, _ radio.BDAddr) { lost = append(lost, h) })
			h, err := a.Connect(b.Address())
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SendL2CAP(h, frame); err != nil {
				t.Fatalf("SendL2CAP on a live link: %v", err)
			}
			tc.kill(m, a, b, h)

			if len(lost) != 1 || lost[0] != h {
				t.Errorf("disconnect notifications = %v, want exactly [%v]", lost, h)
			}
			for i := 0; i < 2; i++ { // a second attempt must not find a revived link
				if err := a.SendL2CAP(h, frame); !errors.Is(err, ErrNoSuchHandle) {
					t.Errorf("SendL2CAP on dead handle (try %d) error = %v, want ErrNoSuchHandle", i, err)
				}
				if err := m.Carry(a.Address(), b.Address(), frame); !errors.Is(err, tc.carryErr) {
					t.Errorf("Carry on dead link (try %d) error = %v, want %v", i, err, tc.carryErr)
				}
			}
			if a.Connected(h) || m.Linked(a.Address(), b.Address()) {
				t.Error("dead link still reported live")
			}
			if _, ok := a.HandleFor(b.Address()); ok {
				t.Error("HandleFor still resolves the dead peer")
			}
			if len(a.Peers()) != 0 {
				t.Errorf("Peers() = %v after the only link died", a.Peers())
			}

			if tc.carryErr == radio.ErrUnknownAddress {
				if err := m.Register(b); err != nil {
					t.Fatal(err)
				}
			}
			h2, err := a.Connect(b.Address())
			if err != nil {
				t.Fatalf("re-Connect after the link died: %v", err)
			}
			if h2 == h {
				t.Errorf("re-Connect reused dead handle %v", h)
			}
			if err := a.SendL2CAP(h2, frame); err != nil {
				t.Errorf("SendL2CAP on the re-paged link: %v", err)
			}
			if err := a.SendL2CAP(h, frame); !errors.Is(err, ErrNoSuchHandle) {
				t.Errorf("old handle revived by re-Connect: error = %v", err)
			}
		})
	}
}

// TestLinkDownForgetsOnlyThatPeer checks the LinkDown observer path: the
// handle dies locally (sends fail) while other links keep working.
func TestLinkDownForgetsOnlyThatPeer(t *testing.T) {
	m, a, b := twoControllers(t)
	c, err := NewController(m, Config{Addr: radio.MustBDAddr("00:00:00:00:00:0C"), Connectable: true})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := a.Connect(b.Address())
	if err != nil {
		t.Fatal(err)
	}
	hc, err := a.Connect(c.Address())
	if err != nil {
		t.Fatal(err)
	}
	a.LinkDown(b.Address())
	if err := a.SendL2CAP(hb, []byte{0, 0, 1, 0}); !errors.Is(err, ErrNoSuchHandle) {
		t.Errorf("SendL2CAP after LinkDown error = %v, want ErrNoSuchHandle", err)
	}
	if err := a.SendL2CAP(hc, []byte{0, 0, 1, 0}); err != nil {
		t.Errorf("SendL2CAP to the surviving peer: %v", err)
	}
	a.LinkDown(b.Address()) // idempotent
	if got := a.Peers(); len(got) != 1 || got[0] != c.Address() {
		t.Errorf("Peers() = %v, want [%v]", got, c.Address())
	}
}

// TestPeersInHandleOrder pins Peers' ascending-handle order across
// drops and re-pages.
func TestPeersInHandleOrder(t *testing.T) {
	m := radio.NewMedium(nil, radio.DefaultTiming())
	var ctrls []*Controller
	for _, addr := range []string{"00:00:00:00:00:01", "00:00:00:00:00:04", "00:00:00:00:00:03", "00:00:00:00:00:02"} {
		c, err := NewController(m, Config{Addr: radio.MustBDAddr(addr), Connectable: true})
		if err != nil {
			t.Fatal(err)
		}
		ctrls = append(ctrls, c)
	}
	a := ctrls[0]
	for _, p := range ctrls[1:] {
		if _, err := a.Connect(p.Address()); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the first link and re-page it: it comes back with the
	// highest handle, so it must move to the end.
	a.DropPeer(ctrls[1].Address())
	if _, err := a.Connect(ctrls[1].Address()); err != nil {
		t.Fatal(err)
	}
	want := []radio.BDAddr{ctrls[2].Address(), ctrls[3].Address(), ctrls[1].Address()}
	got := a.Peers()
	if len(got) != len(want) {
		t.Fatalf("Peers() = %v, want %v", got, want)
	}
	var prev ConnHandle
	for i, p := range got {
		if p != want[i] {
			t.Fatalf("Peers() = %v, want %v", got, want)
		}
		h, ok := a.HandleFor(p)
		if !ok || h <= prev {
			t.Errorf("Peers()[%d] handle %v not ascending after %v", i, h, prev)
		}
		prev = h
	}
}
