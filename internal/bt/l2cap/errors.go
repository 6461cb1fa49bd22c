package l2cap

import "fmt"

// The decode errors below sit on the reject path: every malformed packet
// a device, client or sniffer parses produces one. They hold the
// offending values and format their message only when Error is called,
// so rejecting a packet costs no fmt work; a malformed frame header costs
// at most one small allocation, and none through SplitSignals. Each
// unwraps to its sentinel, so errors.Is and the message text are what
// fmt.Errorf("%w: ...") would give.

// lengthError reports a frame or command header whose sizes do not fit
// the bytes present: ErrShortPacket, ErrLengthMismatch, ErrShortCommand
// or ErrDataLength.
type lengthError struct {
	sentinel error
	// declared is the length the header claims, or -1 when the input was
	// too short to carry a header at all.
	declared int
	// avail is the number of bytes actually present.
	avail int
}

// shortError reports got bytes where a header needs more.
func shortError(sentinel error, got int) error {
	return &lengthError{sentinel: sentinel, declared: -1, avail: got}
}

// overrunError reports a declared length beyond the avail bytes present.
func overrunError(sentinel error, declared, avail int) error {
	return &lengthError{sentinel: sentinel, declared: declared, avail: avail}
}

func (e *lengthError) Error() string {
	if e.declared < 0 {
		return fmt.Sprintf("%v: got %d bytes", e.sentinel, e.avail)
	}
	return fmt.Sprintf("%v: declared %d, available %d", e.sentinel, e.declared, e.avail)
}

func (e *lengthError) Unwrap() error { return e.sentinel }

// unknownCodeError reports a command code outside the 26 defined ones. It
// is one byte wide, so returning it as an error does not allocate.
type unknownCodeError CommandCode

func (e unknownCodeError) Error() string {
	return fmt.Sprintf("%v: 0x%02X", ErrUnknownCode, uint8(e))
}

func (unknownCodeError) Unwrap() error { return ErrUnknownCode }

// lazyError is fmt.Errorf deferred to Error: it keeps the format and
// its arguments and formats only when asked. The command-data decoders
// use it for the rarer reject reasons, whose messages vary too much for
// a dedicated type. The arguments live in the error itself, so building
// one is a single allocation.
type lazyError struct {
	format string
	args   [maxErrorArgs]any
	nargs  int
}

// maxErrorArgs is the most arguments an errorf format takes.
const maxErrorArgs = 4

// errorf is fmt.Errorf with the formatting deferred; format must use
// %w for exactly one error argument and take at most maxErrorArgs
// arguments.
func errorf(format string, args ...any) error {
	e := &lazyError{format: format, nargs: len(args)}
	copy(e.args[:], args)
	return e
}

func (e *lazyError) Error() string { return fmt.Errorf(e.format, e.args[:e.nargs]...).Error() }

// Unwrap returns the error argument the format's %w verb names.
func (e *lazyError) Unwrap() error {
	for _, a := range e.args[:e.nargs] {
		if err, ok := a.(error); ok {
			return err
		}
	}
	return nil
}
