package l2cap

import "fmt"

// CommandCode identifies one of the 26 L2CAP signaling commands defined by
// Bluetooth 5.2 (Vol 3 Part A §4, Table 4.2).
type CommandCode uint8

// The 26 Bluetooth 5.2 signaling command codes.
const (
	CodeCommandReject         CommandCode = 0x01
	CodeConnectionReq         CommandCode = 0x02
	CodeConnectionRsp         CommandCode = 0x03
	CodeConfigurationReq      CommandCode = 0x04
	CodeConfigurationRsp      CommandCode = 0x05
	CodeDisconnectionReq      CommandCode = 0x06
	CodeDisconnectionRsp      CommandCode = 0x07
	CodeEchoReq               CommandCode = 0x08
	CodeEchoRsp               CommandCode = 0x09
	CodeInformationReq        CommandCode = 0x0A
	CodeInformationRsp        CommandCode = 0x0B
	CodeCreateChannelReq      CommandCode = 0x0C
	CodeCreateChannelRsp      CommandCode = 0x0D
	CodeMoveChannelReq        CommandCode = 0x0E
	CodeMoveChannelRsp        CommandCode = 0x0F
	CodeMoveChannelConfirmReq CommandCode = 0x10
	CodeMoveChannelConfirmRsp CommandCode = 0x11
	CodeConnParamUpdateReq    CommandCode = 0x12
	CodeConnParamUpdateRsp    CommandCode = 0x13
	CodeLECreditConnReq       CommandCode = 0x14
	CodeLECreditConnRsp       CommandCode = 0x15
	CodeFlowControlCredit     CommandCode = 0x16
	CodeCreditBasedConnReq    CommandCode = 0x17
	CodeCreditBasedConnRsp    CommandCode = 0x18
	CodeCreditBasedReconfReq  CommandCode = 0x19
	CodeCreditBasedReconfRsp  CommandCode = 0x1A
)

// NumCommandCodes is the number of signaling commands in Bluetooth 5.2.
const NumCommandCodes = 26

// AllCommandCodes returns every Bluetooth 5.2 signaling command code in
// ascending order. The slice is freshly allocated on each call so callers
// may mutate it.
func AllCommandCodes() []CommandCode {
	codes := make([]CommandCode, 0, NumCommandCodes)
	for c := CodeCommandReject; c <= CodeCreditBasedReconfRsp; c++ {
		codes = append(codes, c)
	}
	return codes
}

// Valid reports whether c is one of the 26 defined command codes.
func (c CommandCode) Valid() bool {
	return c >= CodeCommandReject && c <= CodeCreditBasedReconfRsp
}

// IsRequest reports whether c is a request (or indication) that expects a
// response, as opposed to a response/confirmation.
func (c CommandCode) IsRequest() bool {
	switch c {
	case CodeConnectionReq, CodeConfigurationReq, CodeDisconnectionReq,
		CodeEchoReq, CodeInformationReq, CodeCreateChannelReq,
		CodeMoveChannelReq, CodeMoveChannelConfirmReq,
		CodeConnParamUpdateReq, CodeLECreditConnReq,
		CodeCreditBasedConnReq, CodeCreditBasedReconfReq:
		return true
	default:
		return false
	}
}

// commandCodeNames is indexed by code; undefined codes hold "". An array
// rather than a map keeps String free of hashing wherever it is called.
var commandCodeNames = [256]string{
	CodeCommandReject:         "CommandReject",
	CodeConnectionReq:         "ConnectionReq",
	CodeConnectionRsp:         "ConnectionRsp",
	CodeConfigurationReq:      "ConfigurationReq",
	CodeConfigurationRsp:      "ConfigurationRsp",
	CodeDisconnectionReq:      "DisconnectionReq",
	CodeDisconnectionRsp:      "DisconnectionRsp",
	CodeEchoReq:               "EchoReq",
	CodeEchoRsp:               "EchoRsp",
	CodeInformationReq:        "InformationReq",
	CodeInformationRsp:        "InformationRsp",
	CodeCreateChannelReq:      "CreateChannelReq",
	CodeCreateChannelRsp:      "CreateChannelRsp",
	CodeMoveChannelReq:        "MoveChannelReq",
	CodeMoveChannelRsp:        "MoveChannelRsp",
	CodeMoveChannelConfirmReq: "MoveChannelConfirmReq",
	CodeMoveChannelConfirmRsp: "MoveChannelConfirmRsp",
	CodeConnParamUpdateReq:    "ConnParamUpdateReq",
	CodeConnParamUpdateRsp:    "ConnParamUpdateRsp",
	CodeLECreditConnReq:       "LECreditConnReq",
	CodeLECreditConnRsp:       "LECreditConnRsp",
	CodeFlowControlCredit:     "FlowControlCredit",
	CodeCreditBasedConnReq:    "CreditBasedConnReq",
	CodeCreditBasedConnRsp:    "CreditBasedConnRsp",
	CodeCreditBasedReconfReq:  "CreditBasedReconfReq",
	CodeCreditBasedReconfRsp:  "CreditBasedReconfRsp",
}

func (c CommandCode) String() string {
	if n := commandCodeNames[c]; n != "" {
		return n
	}
	return fmt.Sprintf("CommandCode(0x%02X)", uint8(c))
}

// RejectReason is the Reason field of a Command Reject response
// (Vol 3 Part A §4.1). The three reasons are the observable signals the
// paper's mutation-efficiency metric counts as "rejection packets".
type RejectReason uint16

const (
	// RejectNotUnderstood is sent when a device receives a command with an
	// unknown code or an undecodable layout — the fate of packets whose
	// fixed (F) or dependent (D) fields were mutated.
	RejectNotUnderstood RejectReason = 0x0000
	// RejectSignalingMTUExceeded is sent when a signaling packet exceeds
	// the signaling MTU; L2Fuzz bounds its garbage tails to stay below it.
	RejectSignalingMTUExceeded RejectReason = 0x0001
	// RejectInvalidCID is sent when a command references a channel
	// endpoint that does not exist on the device.
	RejectInvalidCID RejectReason = 0x0002
)

func (r RejectReason) String() string {
	switch r {
	case RejectNotUnderstood:
		return "Command not understood"
	case RejectSignalingMTUExceeded:
		return "Signaling MTU exceeded"
	case RejectInvalidCID:
		return "Invalid CID in request"
	default:
		return fmt.Sprintf("RejectReason(0x%04X)", uint16(r))
	}
}

// ConnResult is the Result field of connection-style responses
// (Connection Rsp, Create Channel Rsp).
type ConnResult uint16

const (
	// ConnResultSuccess indicates the connection was established.
	ConnResultSuccess ConnResult = 0x0000
	// ConnResultPending indicates the request is still being processed.
	ConnResultPending ConnResult = 0x0001
	// ConnResultPSMNotSupported indicates the PSM maps to no service.
	ConnResultPSMNotSupported ConnResult = 0x0002
	// ConnResultSecurityBlock indicates pairing/authentication is required.
	ConnResultSecurityBlock ConnResult = 0x0003
	// ConnResultNoResources indicates resource exhaustion (for example the
	// per-state channel cap that causes some L2Fuzz packets to be refused).
	ConnResultNoResources ConnResult = 0x0004
	// ConnResultNoController indicates an unsupported controller ID in a
	// Create Channel Request.
	ConnResultNoController ConnResult = 0x0005
	// ConnResultInvalidSCID indicates a malformed source channel ID.
	ConnResultInvalidSCID ConnResult = 0x0006
	// ConnResultSCIDInUse indicates the source channel ID is already used.
	ConnResultSCIDInUse ConnResult = 0x0007
)

func (r ConnResult) String() string {
	switch r {
	case ConnResultSuccess:
		return "Connection successful"
	case ConnResultPending:
		return "Connection pending"
	case ConnResultPSMNotSupported:
		return "PSM not supported"
	case ConnResultSecurityBlock:
		return "Security block"
	case ConnResultNoResources:
		return "No resources available"
	case ConnResultInvalidSCID:
		return "Invalid Source CID"
	case ConnResultSCIDInUse:
		return "Source CID already allocated"
	default:
		return fmt.Sprintf("ConnResult(0x%04X)", uint16(r))
	}
}

// ConfigResult is the Result field of a Configuration Response.
type ConfigResult uint16

const (
	// ConfigSuccess accepts the proposed options.
	ConfigSuccess ConfigResult = 0x0000
	// ConfigUnacceptableParams rejects the proposed option values.
	ConfigUnacceptableParams ConfigResult = 0x0001
	// ConfigRejected rejects configuration outright.
	ConfigRejected ConfigResult = 0x0002
	// ConfigUnknownOptions rejects unknown options.
	ConfigUnknownOptions ConfigResult = 0x0003
	// ConfigPending defers the decision; the BlueBorne motivating example
	// in §II-C abuses a malformed pending response.
	ConfigPending ConfigResult = 0x0004
	// ConfigFlowSpecRejected rejects the extended flow specification.
	ConfigFlowSpecRejected ConfigResult = 0x0005
)

// MoveResult is the Result field of move-channel responses.
type MoveResult uint16

const (
	// MoveResultSuccess indicates the move completed.
	MoveResultSuccess MoveResult = 0x0000
	// MoveResultPending indicates the move is in progress.
	MoveResultPending MoveResult = 0x0001
	// MoveResultRefusedControllerID indicates an unsupported controller.
	MoveResultRefusedControllerID MoveResult = 0x0002
	// MoveResultRefusedSameController rejects a move to the same controller.
	MoveResultRefusedSameController MoveResult = 0x0003
	// MoveResultRefusedNotAllowed rejects the move outright.
	MoveResultRefusedNotAllowed MoveResult = 0x0004
	// MoveResultRefusedCollision indicates a move collision.
	MoveResultRefusedCollision MoveResult = 0x0005
)

// InfoType is the InfoType field of Information Request/Response.
type InfoType uint16

const (
	// InfoTypeConnectionlessMTU queries the connectionless MTU.
	InfoTypeConnectionlessMTU InfoType = 0x0001
	// InfoTypeExtendedFeatures queries the extended feature mask.
	InfoTypeExtendedFeatures InfoType = 0x0002
	// InfoTypeFixedChannels queries the fixed channels bitmap.
	InfoTypeFixedChannels InfoType = 0x0003
)

// InfoResult is the Result field of an Information Response.
type InfoResult uint16

const (
	// InfoResultSuccess indicates the queried type is supported.
	InfoResultSuccess InfoResult = 0x0000
	// InfoResultNotSupported indicates the queried type is unsupported.
	InfoResultNotSupported InfoResult = 0x0001
)
