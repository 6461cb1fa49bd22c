package l2cap

var (
	_ Command = (*ConnParamUpdateReq)(nil)
	_ Command = (*ConnParamUpdateRsp)(nil)
	_ Command = (*LECreditConnReq)(nil)
	_ Command = (*LECreditConnRsp)(nil)
	_ Command = (*FlowControlCredit)(nil)
	_ Command = (*CreditBasedConnReq)(nil)
	_ Command = (*CreditBasedConnRsp)(nil)
	_ Command = (*CreditBasedReconfReq)(nil)
	_ Command = (*CreditBasedReconfRsp)(nil)
)

// maxECREDChannels is the maximum number of channels one enhanced
// credit-based command may carry (Vol 3 Part A §4.25).
const maxECREDChannels = 5

// CreditFielder is implemented by the credit-based channel commands whose
// payloads carry flow-control negotiation values — SPSM, MTU, MPS and
// CREDIT, the mutable-application (MA) fields of the paper's Table I for
// the LE/enhanced credit-based command family. CreditFields returns
// pointers into the command so a mutator can overwrite the values in
// place, mirroring how CoreFields exposes the protocol-core fields.
//
// Result fields are excluded: they encode an outcome, not a negotiated
// quantity, and the classification keeps them fixed-application.
type CreditFielder interface {
	Command
	// CreditFields returns in-place references to the command's
	// credit-negotiation fields, in wire order; entries past the last
	// field are nil. A fixed-size array keeps the call allocation-free.
	CreditFields() [maxCreditFields]*uint16
}

// maxCreditFields is the most credit-negotiation fields one command
// carries (SPSM, MTU, MPS, CREDIT).
const maxCreditFields = 4

var (
	_ CreditFielder = (*LECreditConnReq)(nil)
	_ CreditFielder = (*LECreditConnRsp)(nil)
	_ CreditFielder = (*FlowControlCredit)(nil)
	_ CreditFielder = (*CreditBasedConnReq)(nil)
	_ CreditFielder = (*CreditBasedConnRsp)(nil)
	_ CreditFielder = (*CreditBasedReconfReq)(nil)
)

// ConnParamUpdateReq (code 0x12) proposes new connection parameters.
// All four members are mutable-application (MA) fields in the paper's
// classification: INTERVAL, LATENCY and TIMEOUT.
type ConnParamUpdateReq struct {
	// IntervalMin is the minimum connection interval, in 1.25 ms units.
	IntervalMin uint16
	// IntervalMax is the maximum connection interval, in 1.25 ms units.
	IntervalMax uint16
	// Latency is the peripheral latency in connection events.
	Latency uint16
	// Timeout is the supervision timeout in 10 ms units.
	Timeout uint16
}

// Code implements Command.
func (*ConnParamUpdateReq) Code() CommandCode { return CodeConnParamUpdateReq }

// MarshalData implements Command.
func (c *ConnParamUpdateReq) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *ConnParamUpdateReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.IntervalMin)
	dst = putU16(dst, c.IntervalMax)
	dst = putU16(dst, c.Latency)
	return putU16(dst, c.Timeout)
}

// UnmarshalData implements Command.
func (c *ConnParamUpdateReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeConnParamUpdateReq, data, 8); err != nil {
		return err
	}
	c.IntervalMin = getU16(data, 0)
	c.IntervalMax = getU16(data, 2)
	c.Latency = getU16(data, 4)
	c.Timeout = getU16(data, 6)
	return nil
}

// CoreFields implements Command.
func (c *ConnParamUpdateReq) CoreFields() CoreFields { return CoreFields{} }

// ConnParamUpdateRsp (code 0x13) accepts or rejects the parameter update.
type ConnParamUpdateRsp struct {
	// Result is zero for accepted, one for rejected.
	Result uint16
}

// Code implements Command.
func (*ConnParamUpdateRsp) Code() CommandCode { return CodeConnParamUpdateRsp }

// MarshalData implements Command.
func (c *ConnParamUpdateRsp) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *ConnParamUpdateRsp) AppendData(dst []byte) []byte { return putU16(dst, c.Result) }

// UnmarshalData implements Command.
func (c *ConnParamUpdateRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeConnParamUpdateRsp, data, 2); err != nil {
		return err
	}
	c.Result = getU16(data, 0)
	return nil
}

// CoreFields implements Command.
func (c *ConnParamUpdateRsp) CoreFields() CoreFields { return CoreFields{} }

// LECreditConnReq (code 0x14) opens an LE credit-based channel. SPSM,
// MTU, MPS and CREDIT are MA fields per the paper; the SCID is CIDP.
type LECreditConnReq struct {
	// SPSM is the simplified PSM of the target service.
	SPSM uint16
	// SCID is the requester-side endpoint.
	SCID CID
	// MTU is the maximum transmission unit the requester can receive.
	MTU uint16
	// MPS is the maximum PDU size the requester can receive.
	MPS uint16
	// InitialCredits seeds the flow-control credit count.
	InitialCredits uint16
}

// Code implements Command.
func (*LECreditConnReq) Code() CommandCode { return CodeLECreditConnReq }

// MarshalData implements Command.
func (c *LECreditConnReq) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *LECreditConnReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.SPSM)
	dst = putU16(dst, uint16(c.SCID))
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	return putU16(dst, c.InitialCredits)
}

// UnmarshalData implements Command.
func (c *LECreditConnReq) UnmarshalData(data []byte) error {
	if err := wantLen(CodeLECreditConnReq, data, 10); err != nil {
		return err
	}
	c.SPSM = getU16(data, 0)
	c.SCID = CID(getU16(data, 2))
	c.MTU = getU16(data, 4)
	c.MPS = getU16(data, 6)
	c.InitialCredits = getU16(data, 8)
	return nil
}

// CoreFields implements Command.
func (c *LECreditConnReq) CoreFields() CoreFields {
	return cidFields(&c.SCID, nil)
}

// CreditFields implements CreditFielder.
func (c *LECreditConnReq) CreditFields() [maxCreditFields]*uint16 {
	return [maxCreditFields]*uint16{&c.SPSM, &c.MTU, &c.MPS, &c.InitialCredits}
}

// LECreditConnRsp (code 0x15) answers an LECreditConnReq.
type LECreditConnRsp struct {
	// DCID is the responder-side endpoint.
	DCID CID
	// MTU is the responder's maximum transmission unit.
	MTU uint16
	// MPS is the responder's maximum PDU size.
	MPS uint16
	// InitialCredits seeds the responder's credit count.
	InitialCredits uint16
	// Result reports the outcome.
	Result uint16
}

// Code implements Command.
func (*LECreditConnRsp) Code() CommandCode { return CodeLECreditConnRsp }

// MarshalData implements Command.
func (c *LECreditConnRsp) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *LECreditConnRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.DCID))
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	dst = putU16(dst, c.InitialCredits)
	return putU16(dst, c.Result)
}

// UnmarshalData implements Command.
func (c *LECreditConnRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeLECreditConnRsp, data, 10); err != nil {
		return err
	}
	c.DCID = CID(getU16(data, 0))
	c.MTU = getU16(data, 2)
	c.MPS = getU16(data, 4)
	c.InitialCredits = getU16(data, 6)
	c.Result = getU16(data, 8)
	return nil
}

// CoreFields implements Command.
func (c *LECreditConnRsp) CoreFields() CoreFields {
	return cidFields(&c.DCID, nil)
}

// CreditFields implements CreditFielder.
func (c *LECreditConnRsp) CreditFields() [maxCreditFields]*uint16 {
	return [maxCreditFields]*uint16{&c.MTU, &c.MPS, &c.InitialCredits}
}

// FlowControlCredit (code 0x16) grants additional credits on a
// credit-based channel. Its CID names a channel endpoint in the payload,
// so it belongs to the CIDP set.
type FlowControlCredit struct {
	// CID is the channel receiving credits.
	CID CID
	// Credits is the number of additional credits granted.
	Credits uint16
}

// Code implements Command.
func (*FlowControlCredit) Code() CommandCode { return CodeFlowControlCredit }

// MarshalData implements Command.
func (c *FlowControlCredit) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *FlowControlCredit) AppendData(dst []byte) []byte {
	dst = putU16(dst, uint16(c.CID))
	return putU16(dst, c.Credits)
}

// UnmarshalData implements Command.
func (c *FlowControlCredit) UnmarshalData(data []byte) error {
	if err := wantLen(CodeFlowControlCredit, data, 4); err != nil {
		return err
	}
	c.CID = CID(getU16(data, 0))
	c.Credits = getU16(data, 2)
	return nil
}

// CoreFields implements Command.
func (c *FlowControlCredit) CoreFields() CoreFields {
	return cidFields(&c.CID, nil)
}

// CreditFields implements CreditFielder.
func (c *FlowControlCredit) CreditFields() [maxCreditFields]*uint16 {
	return [maxCreditFields]*uint16{&c.Credits}
}

// marshalCIDs appends each CID in wire order.
func marshalCIDs(dst []byte, cids []CID) []byte {
	for _, cid := range cids {
		dst = putU16(dst, uint16(cid))
	}
	return dst
}

// unmarshalCIDs decodes the trailing CID list of an enhanced credit-based
// command onto dst (the command's previous list, truncated), so a reused
// decoder cache pays no allocation per command. A decoded list is never
// nil, even when empty.
func unmarshalCIDs(dst []CID, code CommandCode, data []byte) ([]CID, error) {
	if len(data)%2 != 0 {
		return nil, errorf("%w: %v CID list has odd length %d",
			ErrBadCommand, code, len(data))
	}
	n := len(data) / 2
	if n > maxECREDChannels {
		return nil, errorf("%w: %v carries %d CIDs, max %d",
			ErrBadCommand, code, n, maxECREDChannels)
	}
	if dst == nil {
		dst = make([]CID, 0, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, CID(getU16(data, 2*i)))
	}
	return dst, nil
}

// CreditBasedConnReq (code 0x17) opens up to five enhanced credit-based
// channels in one transaction.
type CreditBasedConnReq struct {
	// SPSM is the simplified PSM of the target service.
	SPSM uint16
	// MTU is the requester's maximum transmission unit.
	MTU uint16
	// MPS is the requester's maximum PDU size.
	MPS uint16
	// InitialCredits seeds the credit count.
	InitialCredits uint16
	// SCIDs lists the requester-side endpoints, one per channel.
	SCIDs []CID
}

// Code implements Command.
func (*CreditBasedConnReq) Code() CommandCode { return CodeCreditBasedConnReq }

// MarshalData implements Command.
func (c *CreditBasedConnReq) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *CreditBasedConnReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.SPSM)
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	dst = putU16(dst, c.InitialCredits)
	return marshalCIDs(dst, c.SCIDs)
}

// UnmarshalData implements Command.
func (c *CreditBasedConnReq) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCreditBasedConnReq, data, 8); err != nil {
		return err
	}
	c.SPSM = getU16(data, 0)
	c.MTU = getU16(data, 2)
	c.MPS = getU16(data, 4)
	c.InitialCredits = getU16(data, 6)
	cids, err := unmarshalCIDs(c.SCIDs[:0], CodeCreditBasedConnReq, data[8:])
	if err != nil {
		return err
	}
	c.SCIDs = cids
	return nil
}

// CoreFields implements Command.
func (c *CreditBasedConnReq) CoreFields() CoreFields {
	return CoreFields{cidList: c.SCIDs}
}

// CreditFields implements CreditFielder.
func (c *CreditBasedConnReq) CreditFields() [maxCreditFields]*uint16 {
	return [maxCreditFields]*uint16{&c.SPSM, &c.MTU, &c.MPS, &c.InitialCredits}
}

// CreditBasedConnRsp (code 0x18) answers a CreditBasedConnReq.
type CreditBasedConnRsp struct {
	// MTU is the responder's maximum transmission unit.
	MTU uint16
	// MPS is the responder's maximum PDU size.
	MPS uint16
	// InitialCredits seeds the responder's credit count.
	InitialCredits uint16
	// Result reports the outcome.
	Result uint16
	// DCIDs lists the responder-side endpoints, one per accepted channel.
	DCIDs []CID
}

// Code implements Command.
func (*CreditBasedConnRsp) Code() CommandCode { return CodeCreditBasedConnRsp }

// MarshalData implements Command.
func (c *CreditBasedConnRsp) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *CreditBasedConnRsp) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	dst = putU16(dst, c.InitialCredits)
	dst = putU16(dst, c.Result)
	return marshalCIDs(dst, c.DCIDs)
}

// UnmarshalData implements Command.
func (c *CreditBasedConnRsp) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCreditBasedConnRsp, data, 8); err != nil {
		return err
	}
	c.MTU = getU16(data, 0)
	c.MPS = getU16(data, 2)
	c.InitialCredits = getU16(data, 4)
	c.Result = getU16(data, 6)
	cids, err := unmarshalCIDs(c.DCIDs[:0], CodeCreditBasedConnRsp, data[8:])
	if err != nil {
		return err
	}
	c.DCIDs = cids
	return nil
}

// CoreFields implements Command.
func (c *CreditBasedConnRsp) CoreFields() CoreFields {
	return CoreFields{cidList: c.DCIDs}
}

// CreditFields implements CreditFielder.
func (c *CreditBasedConnRsp) CreditFields() [maxCreditFields]*uint16 {
	return [maxCreditFields]*uint16{&c.MTU, &c.MPS, &c.InitialCredits}
}

// CreditBasedReconfReq (code 0x19) renegotiates MTU/MPS on enhanced
// credit-based channels.
type CreditBasedReconfReq struct {
	// MTU is the new maximum transmission unit.
	MTU uint16
	// MPS is the new maximum PDU size.
	MPS uint16
	// DCIDs lists the channels being reconfigured.
	DCIDs []CID
}

// Code implements Command.
func (*CreditBasedReconfReq) Code() CommandCode { return CodeCreditBasedReconfReq }

// MarshalData implements Command.
func (c *CreditBasedReconfReq) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *CreditBasedReconfReq) AppendData(dst []byte) []byte {
	dst = putU16(dst, c.MTU)
	dst = putU16(dst, c.MPS)
	return marshalCIDs(dst, c.DCIDs)
}

// UnmarshalData implements Command.
func (c *CreditBasedReconfReq) UnmarshalData(data []byte) error {
	if err := wantMinLen(CodeCreditBasedReconfReq, data, 4); err != nil {
		return err
	}
	c.MTU = getU16(data, 0)
	c.MPS = getU16(data, 2)
	cids, err := unmarshalCIDs(c.DCIDs[:0], CodeCreditBasedReconfReq, data[4:])
	if err != nil {
		return err
	}
	c.DCIDs = cids
	return nil
}

// CoreFields implements Command.
func (c *CreditBasedReconfReq) CoreFields() CoreFields {
	return CoreFields{cidList: c.DCIDs}
}

// CreditFields implements CreditFielder.
func (c *CreditBasedReconfReq) CreditFields() [maxCreditFields]*uint16 {
	return [maxCreditFields]*uint16{&c.MTU, &c.MPS}
}

// CreditBasedReconfRsp (code 0x1A) answers a CreditBasedReconfReq.
type CreditBasedReconfRsp struct {
	// Result reports the outcome.
	Result uint16
}

// Code implements Command.
func (*CreditBasedReconfRsp) Code() CommandCode { return CodeCreditBasedReconfRsp }

// MarshalData implements Command.
func (c *CreditBasedReconfRsp) MarshalData() []byte { return c.AppendData(nil) }

// AppendData implements Command.
func (c *CreditBasedReconfRsp) AppendData(dst []byte) []byte { return putU16(dst, c.Result) }

// UnmarshalData implements Command.
func (c *CreditBasedReconfRsp) UnmarshalData(data []byte) error {
	if err := wantLen(CodeCreditBasedReconfRsp, data, 2); err != nil {
		return err
	}
	c.Result = getU16(data, 0)
	return nil
}

// CoreFields implements Command.
func (c *CreditBasedReconfRsp) CoreFields() CoreFields { return CoreFields{} }
