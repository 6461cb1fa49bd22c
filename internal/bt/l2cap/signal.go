package l2cap

import "encoding/binary"

// Frame is one signaling command as carried on the signaling channel:
// a 4-byte command header (code, identifier, data length) followed by the
// declared data bytes and any trailing garbage beyond the declared length.
type Frame struct {
	// Code identifies the signaling command.
	Code CommandCode
	// Identifier matches responses to requests. Zero is illegal on the
	// wire; the spec requires a non-zero identifier.
	Identifier uint8
	// Data holds exactly the declared data-length bytes.
	Data []byte
	// Tail holds bytes that followed the declared data within the same
	// L2CAP payload — the garbage tail appended by core-field mutating.
	Tail []byte
}

// MarshalTo appends the wire form of the frame (including the tail) to dst
// and returns the extended slice.
func (f Frame) MarshalTo(dst []byte) []byte {
	var hdr [SignalHeaderSize]byte
	hdr[0] = uint8(f.Code)
	hdr[1] = f.Identifier
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(f.Data)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Data...)
	dst = append(dst, f.Tail...)
	return dst
}

// Marshal returns the wire form of the frame.
func (f Frame) Marshal() []byte {
	return f.MarshalTo(make([]byte, 0, SignalHeaderSize+len(f.Data)+len(f.Tail)))
}

// UnmarshalFrame decodes a single signaling frame from payload, treating
// every byte beyond the declared data length as Tail. Use ParseSignals for
// payloads that may pack several commands.
//
// Data and Tail alias payload (borrow semantics): the frame is valid only
// while payload is. Callers that retain the frame past the payload's
// lifetime must copy both slices.
func UnmarshalFrame(payload []byte) (Frame, error) {
	if len(payload) < SignalHeaderSize {
		return Frame{}, shortError(ErrShortCommand, len(payload))
	}
	f := Frame{
		Code:       CommandCode(payload[0]),
		Identifier: payload[1],
	}
	dataLen := int(binary.LittleEndian.Uint16(payload[2:4]))
	rest := payload[SignalHeaderSize:]
	if dataLen > len(rest) {
		return Frame{}, overrunError(ErrDataLength, dataLen, len(rest))
	}
	f.Data = rest[:dataLen:dataLen]
	f.Tail = rest[dataLen:]
	return f, nil
}

// ParseSignals decodes the sequence of signaling frames packed into one
// signaling-channel payload. BR/EDR permits multiple commands per C-frame;
// parsing stops at the first frame that cannot be decoded, returning the
// frames decoded so far together with the error. A trailing fragment too
// short to be a command header is attributed to the previous frame's Tail
// (or reported as an error when there is no previous frame).
//
// Each frame's Data and Tail alias payload (borrow semantics): the frames
// are valid only while payload is. Callers that retain them must copy.
func ParseSignals(payload []byte) ([]Frame, error) {
	return AppendSignals(nil, payload)
}

// AppendSignals is ParseSignals with a caller-supplied destination: the
// decoded frames are appended to dst (usually a reused scratch slice with
// length 0), avoiding a slice allocation per payload on the hot path. The
// same borrow semantics apply: Data and Tail alias payload.
func AppendSignals(dst []Frame, payload []byte) ([]Frame, error) {
	out, fault := splitSignals(dst, payload)
	if fault.sentinel != nil {
		err := fault // boxed from a copy, so only a failure allocates
		return out, &err
	}
	return out, nil
}

// SplitSignals is AppendSignals for callers that only branch on the
// outcome, such as a device rejecting an undecodable payload or a trace
// sniffer counting one: it returns the same frames, and ok is false
// exactly when AppendSignals would return an error. It never allocates
// an error value, so a malformed payload costs nothing beyond the parse.
func SplitSignals(dst []Frame, payload []byte) (frames []Frame, ok bool) {
	out, fault := splitSignals(dst, payload)
	return out, fault.sentinel == nil
}

// splitSignals is the parser behind AppendSignals and SplitSignals. On
// failure it describes the fault as a lengthError value (sentinel set),
// left for the caller to box only if it returns an error.
func splitSignals(dst []Frame, payload []byte) ([]Frame, lengthError) {
	base := len(dst)
	off := 0
	for off < len(payload) {
		rest := payload[off:]
		if len(rest) < SignalHeaderSize {
			if len(dst) == base {
				return dst[:base], lengthError{sentinel: ErrShortCommand, declared: -1, avail: len(rest)}
			}
			last := &dst[len(dst)-1]
			last.Tail = appendTail(last.Tail, payload, off)
			return dst, lengthError{}
		}
		dataLen := int(binary.LittleEndian.Uint16(rest[2:4]))
		if SignalHeaderSize+dataLen > len(rest) {
			if len(dst) == base {
				return dst[:base], lengthError{sentinel: ErrDataLength, declared: dataLen, avail: len(rest) - SignalHeaderSize}
			}
			last := &dst[len(dst)-1]
			last.Tail = appendTail(last.Tail, payload, off)
			return dst, lengthError{}
		}
		dst = append(dst, Frame{
			Code:       CommandCode(rest[0]),
			Identifier: rest[1],
			Data:       rest[SignalHeaderSize : SignalHeaderSize+dataLen : SignalHeaderSize+dataLen],
		})
		off += SignalHeaderSize + dataLen
	}
	return dst, lengthError{}
}

// appendTail extends a frame's tail with payload[off:]. When the existing
// tail already aliases payload and ends exactly at off — the only way this
// parser produces a non-empty tail — the extension is a re-slice; the
// empty-tail case borrows directly. (A copying append would silently break
// the borrow contract by mixing owned and aliased tails.)
func appendTail(tail, payload []byte, off int) []byte {
	if len(tail) == 0 {
		return payload[off:]
	}
	// tail is payload[off-len(tail) : off]; grow it in place.
	return payload[off-len(tail):]
}

// Command is one decoded signaling command. Implementations are the 26
// concrete command structs in this package; all use pointer receivers.
type Command interface {
	// Code returns the signaling command code.
	Code() CommandCode
	// MarshalData encodes the command's data fields (the bytes that follow
	// the 4-byte command header) into a fresh buffer.
	MarshalData() []byte
	// AppendData appends the command's data fields to dst and returns the
	// extended slice: the allocation-free form of MarshalData the packet
	// hot path uses.
	AppendData(dst []byte) []byte
	// UnmarshalData decodes the command's data fields. Variable-length
	// members ([]byte fields such as echo payloads and reject reason
	// data) alias the argument slice (borrow semantics): the decoded
	// command is valid only while data is. Callers that retain the
	// command past the buffer's lifetime must copy those fields.
	UnmarshalData(data []byte) error
	// CoreFields exposes the mutable-core (MC) fields of the command for
	// L2Fuzz's core-field mutating: the PSM (port) and every channel ID
	// carried in the payload (CIDP). Nil/empty members mean the command
	// has no such field.
	CoreFields() CoreFields
}

// CoreFields references a command's mutable-core fields in place, letting
// a mutator rewrite them without knowing the command layout. It is a
// plain value over fixed-size storage: building one allocates nothing,
// so the mutator and the trace sniffer can ask every packet for it.
type CoreFields struct {
	// PSM points at the command's port field, if any.
	PSM *PSM
	// ControllerID points at the command's controller-ID field (the CONT
	// ID member of MC in the paper's Figure 6), if any. No command
	// carries more than one.
	ControllerID *uint8
	// cids points at the command's fixed channel-ID fields (SCID, DCID,
	// ICID) in wire order; the first ncids entries are set.
	cids  [2]*CID
	ncids int
	// cidList is the variable-length channel-ID list of an enhanced
	// credit-based command, aliasing the command's own slice. It follows
	// the fixed fields in wire order (no command has both).
	cidList []CID
}

// cidFields returns the core fields of a command whose channel-ID fields
// are the scalars a and, when non-nil, b, in wire order.
func cidFields(a, b *CID) CoreFields {
	c := CoreFields{cids: [2]*CID{a, b}, ncids: 1}
	if b != nil {
		c.ncids = 2
	}
	return c
}

// NumCIDs returns how many channel-ID-in-payload fields the command
// carries.
func (c *CoreFields) NumCIDs() int { return c.ncids + len(c.cidList) }

// CID points at the command's i-th channel-ID-in-payload field, in wire
// order, for 0 <= i < NumCIDs.
func (c *CoreFields) CID(i int) *CID {
	if i < c.ncids {
		return c.cids[i]
	}
	return &c.cidList[i-c.ncids]
}

// Empty reports whether the command exposes no mutable-core fields at all
// (echo and information commands, pure result responses).
func (c CoreFields) Empty() bool {
	return c.PSM == nil && c.NumCIDs() == 0 && c.ControllerID == nil
}

// newCommand returns a zero-valued concrete command for code.
func newCommand(code CommandCode) (Command, error) {
	switch code {
	case CodeCommandReject:
		return &CommandReject{}, nil
	case CodeConnectionReq:
		return &ConnectionReq{}, nil
	case CodeConnectionRsp:
		return &ConnectionRsp{}, nil
	case CodeConfigurationReq:
		return &ConfigurationReq{}, nil
	case CodeConfigurationRsp:
		return &ConfigurationRsp{}, nil
	case CodeDisconnectionReq:
		return &DisconnectionReq{}, nil
	case CodeDisconnectionRsp:
		return &DisconnectionRsp{}, nil
	case CodeEchoReq:
		return &EchoReq{}, nil
	case CodeEchoRsp:
		return &EchoRsp{}, nil
	case CodeInformationReq:
		return &InformationReq{}, nil
	case CodeInformationRsp:
		return &InformationRsp{}, nil
	case CodeCreateChannelReq:
		return &CreateChannelReq{}, nil
	case CodeCreateChannelRsp:
		return &CreateChannelRsp{}, nil
	case CodeMoveChannelReq:
		return &MoveChannelReq{}, nil
	case CodeMoveChannelRsp:
		return &MoveChannelRsp{}, nil
	case CodeMoveChannelConfirmReq:
		return &MoveChannelConfirmReq{}, nil
	case CodeMoveChannelConfirmRsp:
		return &MoveChannelConfirmRsp{}, nil
	case CodeConnParamUpdateReq:
		return &ConnParamUpdateReq{}, nil
	case CodeConnParamUpdateRsp:
		return &ConnParamUpdateRsp{}, nil
	case CodeLECreditConnReq:
		return &LECreditConnReq{}, nil
	case CodeLECreditConnRsp:
		return &LECreditConnRsp{}, nil
	case CodeFlowControlCredit:
		return &FlowControlCredit{}, nil
	case CodeCreditBasedConnReq:
		return &CreditBasedConnReq{}, nil
	case CodeCreditBasedConnRsp:
		return &CreditBasedConnRsp{}, nil
	case CodeCreditBasedReconfReq:
		return &CreditBasedReconfReq{}, nil
	case CodeCreditBasedReconfRsp:
		return &CreditBasedReconfRsp{}, nil
	default:
		return nil, unknownCodeError(code)
	}
}

// DecodeCommand turns a signaling frame into a freshly allocated concrete
// command. Hot paths that decode one frame at a time should prefer a
// reused Decoder.
func DecodeCommand(f Frame) (Command, error) {
	cmd, err := newCommand(f.Code)
	if err != nil {
		return nil, err
	}
	if err := cmd.UnmarshalData(f.Data); err != nil {
		return nil, errorf("decode %v: %w", f.Code, err)
	}
	return cmd, nil
}

// Decoder decodes signaling frames into a per-code cache of command
// instances, so a packet-processing loop pays no allocation per decoded
// command. The returned command is owned by the decoder and overwritten
// by the next Decode of the same code: callers use it within the current
// handling step (or copy what they keep), exactly the window the borrow
// rule on UnmarshalData already imposes. A Decoder is not safe for
// concurrent use; give each device, sniffer, or client its own.
type Decoder struct {
	cache [256]Command
}

// Decode turns a signaling frame into its concrete command, reusing the
// decoder's cached instance for the frame's code.
func (d *Decoder) Decode(f Frame) (Command, error) {
	cmd := d.cache[f.Code]
	if cmd == nil {
		fresh, err := newCommand(f.Code)
		if err != nil {
			return nil, err
		}
		d.cache[f.Code] = fresh
		cmd = fresh
	}
	if err := cmd.UnmarshalData(f.Data); err != nil {
		return nil, errorf("decode %v: %w", f.Code, err)
	}
	return cmd, nil
}

// EncodeFrame wraps a command into a signaling frame with the given
// identifier and optional garbage tail.
func EncodeFrame(id uint8, cmd Command, tail []byte) Frame {
	return Frame{
		Code:       cmd.Code(),
		Identifier: id,
		Data:       cmd.MarshalData(),
		Tail:       append([]byte(nil), tail...),
	}
}

// AppendSignalFrame appends the wire form of one signaling frame — the
// 4-byte command header, the command data, then the garbage tail beyond
// the declared length — to dst, returning the extended slice and the
// declared frame size (header + data, tail excluded). It is the
// allocation-free core of SignalPacket: hot paths hand it a reused
// scratch buffer.
func AppendSignalFrame(dst []byte, id uint8, cmd Command, tail []byte) (out []byte, declared int) {
	start := len(dst)
	dst = append(dst, uint8(cmd.Code()), id, 0, 0)
	dst = cmd.AppendData(dst)
	dataLen := len(dst) - start - SignalHeaderSize
	binary.LittleEndian.PutUint16(dst[start+2:start+4], uint16(dataLen))
	dst = append(dst, tail...)
	return dst, SignalHeaderSize + dataLen
}

// SignalPacket builds a complete basic frame carrying a single signaling
// command on the signaling channel. The declared lengths describe the
// command without the tail, reproducing the paper's Figure 7 layout where
// garbage lives beyond every declared length.
func SignalPacket(id uint8, cmd Command, tail []byte) Packet {
	return AppendSignalPacket(nil, id, cmd, tail)
}

// AppendSignalPacket is SignalPacket building the payload onto dst
// (usually a reused scratch buffer with length 0): the returned packet's
// Payload is the extended slice, which the caller keeps as its scratch
// for the next packet.
func AppendSignalPacket(dst []byte, id uint8, cmd Command, tail []byte) Packet {
	payload, declared := AppendSignalFrame(dst, id, cmd, tail)
	return Packet{
		Length:    uint16(min(declared, MaxPayload)),
		ChannelID: CIDSignaling,
		Payload:   payload,
	}
}
