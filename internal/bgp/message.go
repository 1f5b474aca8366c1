package bgp

import (
	"fmt"
	"net/netip"
)

// BGP message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Message size limits.
const (
	HeaderLen = 19
	MaxMsgLen = 4096
)

// Message is any BGP message.
type Message interface {
	// Type returns the BGP message type code.
	Type() byte
	// AppendBody appends the wire form of the message body (everything
	// after the 19-byte header) to dst.
	AppendBody(dst []byte) ([]byte, error)
}

// Open is a BGP OPEN message. Only the fields the repository needs are
// modeled; the AS4 capability (RFC 6793) is carried explicitly because
// route servers and collectors always negotiate it.
type Open struct {
	Version  byte
	ASN      ASN // sent as AS_TRANS in the 2-byte field if 32-bit
	HoldTime uint16
	RouterID netip.Addr
	AS4      bool // advertise the 4-octet-AS capability
}

// Type implements Message.
func (o *Open) Type() byte { return MsgOpen }

// AppendBody implements Message.
func (o *Open) AppendBody(dst []byte) ([]byte, error) {
	v := o.Version
	if v == 0 {
		v = 4
	}
	asn16 := o.ASN
	if asn16.Is32Bit() {
		asn16 = ASTrans
	}
	dst = append(dst, v, byte(asn16>>8), byte(asn16))
	dst = append(dst, byte(o.HoldTime>>8), byte(o.HoldTime))
	rid := o.RouterID
	if !rid.IsValid() || !rid.Is4() {
		rid = netip.AddrFrom4([4]byte{})
	}
	dst = append(dst, rid.AsSlice()...)
	if o.AS4 {
		// Optional parameters: one capabilities parameter (type 2)
		// containing capability 65 (4-octet AS) with the full ASN.
		cap := []byte{65, 4, byte(o.ASN >> 24), byte(o.ASN >> 16), byte(o.ASN >> 8), byte(o.ASN)}
		param := append([]byte{2, byte(len(cap))}, cap...)
		dst = append(dst, byte(len(param)))
		dst = append(dst, param...)
	} else {
		dst = append(dst, 0)
	}
	return dst, nil
}

// Update is a BGP UPDATE message.
type Update struct {
	Withdrawn []Prefix
	Attrs     *PathAttrs
	NLRI      []Prefix
}

// Type implements Message.
func (u *Update) Type() byte { return MsgUpdate }

// AppendBody implements Message. as4 encoding is fixed at 4-octet since
// every speaker in this repository negotiates it; Encode wraps the
// 2-octet legacy case for tests via EncodeUpdateAS2.
func (u *Update) AppendBody(dst []byte) ([]byte, error) {
	return u.appendBody(dst, true)
}

func (u *Update) appendBody(dst []byte, as4 bool) ([]byte, error) {
	var wd []byte
	for _, p := range u.Withdrawn {
		if p.Addr().Is6() {
			return nil, fmt.Errorf("bgp: IPv6 withdrawn route %s requires MP_UNREACH_NLRI", p)
		}
		wd = p.AppendWire(wd)
	}
	dst = append(dst, byte(len(wd)>>8), byte(len(wd)))
	dst = append(dst, wd...)

	var attrs []byte
	if u.Attrs != nil {
		var err error
		attrs, err = u.Attrs.AppendWire(nil, as4)
		if err != nil {
			return nil, err
		}
	}
	dst = append(dst, byte(len(attrs)>>8), byte(len(attrs)))
	dst = append(dst, attrs...)

	for _, p := range u.NLRI {
		if p.Addr().Is6() {
			return nil, fmt.Errorf("bgp: IPv6 NLRI %s requires MP_REACH_NLRI", p)
		}
		dst = p.AppendWire(dst)
	}
	return dst, nil
}

// Notification is a BGP NOTIFICATION message.
type Notification struct {
	Code    byte
	Subcode byte
	Data    []byte
}

// Type implements Message.
func (n *Notification) Type() byte { return MsgNotification }

// AppendBody implements Message.
func (n *Notification) AppendBody(dst []byte) ([]byte, error) {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...), nil
}

// Keepalive is a BGP KEEPALIVE message.
type Keepalive struct{}

// Type implements Message.
func (Keepalive) Type() byte { return MsgKeepalive }

// AppendBody implements Message.
func (Keepalive) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

// Encode serializes a complete message including the 19-byte header with
// the all-ones marker.
func Encode(m Message) ([]byte, error) {
	buf := make([]byte, HeaderLen, 64)
	for i := 0; i < 16; i++ {
		buf[i] = 0xFF
	}
	buf, err := m.AppendBody(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) > MaxMsgLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds %d", len(buf), MaxMsgLen)
	}
	buf[16] = byte(len(buf) >> 8)
	buf[17] = byte(len(buf))
	buf[18] = m.Type()
	return buf, nil
}

// EncodeUpdateAS2 serializes an UPDATE using legacy 2-octet AS encoding,
// substituting AS_TRANS for 32-bit ASNs. Used by tests exercising the
// RFC 6793 reconciliation path.
func EncodeUpdateAS2(u *Update) ([]byte, error) {
	buf := make([]byte, HeaderLen, 64)
	for i := 0; i < 16; i++ {
		buf[i] = 0xFF
	}
	buf, err := u.appendBody(buf, false)
	if err != nil {
		return nil, err
	}
	buf[16] = byte(len(buf) >> 8)
	buf[17] = byte(len(buf))
	buf[18] = MsgUpdate
	return buf, nil
}

// Decode parses one complete message from b, which must contain exactly
// one message. as4 selects 4-octet AS_PATH decoding.
func Decode(b []byte, as4 bool) (Message, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("bgp: message shorter than header: %d", len(b))
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xFF {
			return nil, fmt.Errorf("bgp: bad marker byte at %d", i)
		}
	}
	length := int(b[16])<<8 | int(b[17])
	if length != len(b) {
		return nil, fmt.Errorf("bgp: header length %d != buffer %d", length, len(b))
	}
	typ := b[18]
	body := b[HeaderLen:]
	switch typ {
	case MsgOpen:
		return decodeOpen(body)
	case MsgUpdate:
		return DecodeUpdate(body, as4)
	case MsgNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: NOTIFICATION body too short")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("bgp: KEEPALIVE with %d body bytes", len(body))
		}
		return Keepalive{}, nil
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", typ)
	}
}

func decodeOpen(b []byte) (*Open, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("bgp: OPEN body too short: %d", len(b))
	}
	o := &Open{
		Version:  b[0],
		ASN:      ASN(uint16(b[1])<<8 | uint16(b[2])),
		HoldTime: uint16(b[3])<<8 | uint16(b[4]),
	}
	o.RouterID = netip.AddrFrom4([4]byte(b[5:9]))
	optLen := int(b[9])
	opts := b[10:]
	if len(opts) != optLen {
		return nil, fmt.Errorf("bgp: OPEN optional parameters: declared %d, have %d", optLen, len(opts))
	}
	for len(opts) > 0 {
		if len(opts) < 2 {
			return nil, fmt.Errorf("bgp: truncated OPEN parameter header")
		}
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return nil, fmt.Errorf("bgp: truncated OPEN parameter body")
		}
		pbody := opts[2 : 2+plen]
		opts = opts[2+plen:]
		if ptype != 2 {
			continue // not capabilities
		}
		for len(pbody) >= 2 {
			code, clen := pbody[0], int(pbody[1])
			if len(pbody) < 2+clen {
				break
			}
			cbody := pbody[2 : 2+clen]
			pbody = pbody[2+clen:]
			if code == 65 && clen == 4 {
				o.AS4 = true
				o.ASN = ASN(be32(cbody))
			}
		}
	}
	return o, nil
}

// DecodeUpdate parses an UPDATE body (without header).
func DecodeUpdate(b []byte, as4 bool) (*Update, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("bgp: UPDATE too short for withdrawn length")
	}
	wdLen := int(b[0])<<8 | int(b[1])
	b = b[2:]
	if len(b) < wdLen {
		return nil, fmt.Errorf("bgp: withdrawn routes: need %d bytes, have %d", wdLen, len(b))
	}
	u := &Update{}
	var err error
	if wdLen > 0 {
		u.Withdrawn, err = DecodePrefixes(b[:wdLen], false)
		if err != nil {
			return nil, err
		}
	}
	b = b[wdLen:]
	if len(b) < 2 {
		return nil, fmt.Errorf("bgp: UPDATE too short for attribute length")
	}
	atLen := int(b[0])<<8 | int(b[1])
	b = b[2:]
	if len(b) < atLen {
		return nil, fmt.Errorf("bgp: path attributes: need %d bytes, have %d", atLen, len(b))
	}
	if atLen > 0 {
		u.Attrs, err = DecodeAttrs(b[:atLen], as4)
		if err != nil {
			return nil, err
		}
	}
	b = b[atLen:]
	if len(b) > 0 {
		u.NLRI, err = DecodePrefixes(b, false)
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}
