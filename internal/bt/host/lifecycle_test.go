package host_test

import (
	"errors"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/l2cap"
	"l2fuzz/internal/bt/radio"
)

// TestClientDeadLinksStayDead kills the tester's link every way a link
// can die and checks that Send and SendRaw keep failing with
// ErrNotConnected (and the medium with its own sentinel) until a fresh
// Connect, which must work again.
func TestClientDeadLinksStayDead(t *testing.T) {
	echo := l2cap.SignalPacket(1, &l2cap.EchoReq{}, nil)
	wire := echo.Marshal()
	cases := []struct {
		name     string
		kill     func(m *radio.Medium, d *device.Device, cl *host.Client)
		carryErr error
	}{
		{"client disconnect", func(_ *radio.Medium, d *device.Device, cl *host.Client) {
			cl.Disconnect(d.Address())
		}, radio.ErrNotConnected},
		{"medium drop", func(m *radio.Medium, d *device.Device, cl *host.Client) {
			m.Drop(cl.Address(), d.Address())
		}, radio.ErrNotConnected},
		{"target drops peer", func(_ *radio.Medium, d *device.Device, cl *host.Client) {
			d.Controller().DropPeer(cl.Address())
		}, radio.ErrNotConnected},
		{"target unregistered", func(m *radio.Medium, d *device.Device, _ *host.Client) {
			m.Unregister(d.Address())
		}, radio.ErrUnknownAddress},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, d, cl := newRig(t, device.BlueDroidProfile("5.0", "fp"))
			if err := cl.Connect(d.Address()); err != nil {
				t.Fatal(err)
			}
			if err := cl.Ping(d.Address()); err != nil {
				t.Fatalf("Ping on a live link: %v", err)
			}
			tc.kill(m, d, cl)

			// The first send after an unnoticed link loss discovers it;
			// every later one must fail the same way.
			for i := 0; i < 3; i++ {
				if err := cl.Send(d.Address(), echo); !errors.Is(err, host.ErrNotConnected) {
					t.Errorf("Send on dead link (try %d) error = %v, want ErrNotConnected", i, err)
				}
				if err := cl.SendRaw(d.Address(), wire); !errors.Is(err, host.ErrNotConnected) {
					t.Errorf("SendRaw on dead link (try %d) error = %v, want ErrNotConnected", i, err)
				}
				if err := m.Carry(cl.Address(), d.Address(), wire); !errors.Is(err, tc.carryErr) {
					t.Errorf("Carry on dead link (try %d) error = %v, want %v", i, err, tc.carryErr)
				}
			}
			if cl.Connected(d.Address()) {
				t.Error("Connected() = true on a dead link")
			}

			if tc.carryErr == radio.ErrUnknownAddress {
				if err := m.Register(d.Controller()); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.Connect(d.Address()); err != nil {
				t.Fatalf("re-Connect after the link died: %v", err)
			}
			if err := cl.Ping(d.Address()); err != nil {
				t.Errorf("Ping on the re-paged link: %v", err)
			}
			if err := cl.SendRaw(d.Address(), wire); err != nil {
				t.Errorf("SendRaw on the re-paged link: %v", err)
			}
		})
	}
}
