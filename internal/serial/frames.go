package serial

import (
	"fmt"

	"repro/internal/noc"
)

// Host-to-MultiNoC command codes (§2.2: "Four commands are handled by
// the host computer"). The byte layouts follow the Figure 9 example
// "00 01 01 00 20" = read, target IP 01, count 1, address 0x0020.
const (
	CmdRead        = 0x00 // tgt cnt addrH addrL
	CmdWrite       = 0x01 // tgt cnt addrH addrL (dataH dataL) x cnt
	CmdActivate    = 0x02 // tgt
	CmdScanfReturn = 0x03 // tgt dataH dataL
)

// MultiNoC-to-host frame codes ("The other three commands ... come from
// the HERMES NoC to the host"): the service numbers of the underlying
// packets.
const (
	UpReadReturn = byte(noc.SvcReadReturn) // src cnt addrH addrL data...
	UpPrintf     = byte(noc.SvcPrintf)     // src len bytes...
	UpScanf      = byte(noc.SvcScanf)      // src
)

// SyncByte is the value the host transmits first so the Serial IP can
// measure the baud rate (§4).
const SyncByte = 0x55

// downParser is the Serial IP's streaming decoder for host command
// frames. Feed returns a completed message (addressed to Target) when
// a frame closes.
type downParser struct {
	buf []byte

	Frames uint64
	Errors uint64
}

// downNeed returns the length of the frame buf begins, or until its
// header shows that, a lower bound on it.
func downNeed(buf []byte) (int, error) {
	switch buf[0] {
	case CmdRead:
		return 5, nil
	case CmdWrite:
		if len(buf) < 3 {
			return 5, nil // a write of no words
		}
		return 5 + 2*int(buf[2]), nil
	case CmdActivate:
		return 2, nil
	case CmdScanfReturn:
		return 4, nil
	default:
		return 0, fmt.Errorf("serial: unknown host command %#02x", buf[0])
	}
}

// need returns a lower bound on the bytes, the next one counted, that
// must arrive before the parser can complete a frame (RX.Need).
func (p *downParser) need() int {
	if len(p.buf) == 0 {
		return 2 // an activate
	}
	n, _ := downNeed(p.buf) // buf begins with a known command
	return n - len(p.buf)
}

// Feed consumes one byte; when it completes a frame it returns the
// decoded message and the target address.
func (p *downParser) Feed(b byte) (*noc.Message, noc.Addr, bool) {
	p.buf = append(p.buf, b)
	n, err := downNeed(p.buf)
	if err != nil {
		// Resynchronize: drop the bogus byte.
		p.Errors++
		p.buf = p.buf[:0]
		return nil, noc.Addr{}, false
	}
	if len(p.buf) < n {
		return nil, noc.Addr{}, false
	}
	buf := p.buf
	p.buf = p.buf[:0]
	p.Frames++
	tgt := noc.DecodeAddr(uint16(buf[1]))
	switch buf[0] {
	case CmdRead:
		return &noc.Message{
			Svc:   noc.SvcReadMem,
			Count: int(buf[2]),
			Addr:  uint16(buf[3])<<8 | uint16(buf[4]),
		}, tgt, true
	case CmdWrite:
		m := &noc.Message{
			Svc:  noc.SvcWriteMem,
			Addr: uint16(buf[3])<<8 | uint16(buf[4]),
		}
		for i := 5; i+1 < len(buf); i += 2 {
			m.Words = append(m.Words, uint16(buf[i])<<8|uint16(buf[i+1]))
		}
		return m, tgt, true
	case CmdActivate:
		return &noc.Message{Svc: noc.SvcActivate}, tgt, true
	default: // CmdScanfReturn
		return &noc.Message{
			Svc:   noc.SvcScanfReturn,
			Words: []uint16{uint16(buf[2])<<8 | uint16(buf[3])},
		}, tgt, true
	}
}

// EncodeUp serializes a NoC-to-host message into frame bytes.
func EncodeUp(m *noc.Message) ([]byte, error) {
	switch m.Svc {
	case noc.SvcReadReturn:
		if len(m.Words) > 255 {
			return nil, fmt.Errorf("serial: read return of %d words too long", len(m.Words))
		}
		out := []byte{UpReadReturn, byte(m.Src.Encode()), byte(len(m.Words)),
			byte(m.Addr >> 8), byte(m.Addr)}
		for _, w := range m.Words {
			out = append(out, byte(w>>8), byte(w))
		}
		return out, nil
	case noc.SvcPrintf:
		if len(m.Bytes) > 255 {
			return nil, fmt.Errorf("serial: printf of %d bytes too long", len(m.Bytes))
		}
		out := []byte{UpPrintf, byte(m.Src.Encode()), byte(len(m.Bytes))}
		return append(out, m.Bytes...), nil
	case noc.SvcScanf:
		return []byte{UpScanf, byte(m.Src.Encode())}, nil
	default:
		return nil, fmt.Errorf("serial: service %s cannot be sent to the host", m.Svc)
	}
}

// UpParser is the host-side streaming decoder for MultiNoC frames. The
// zero value is ready to use.
type UpParser struct {
	buf []byte

	Frames uint64
	Errors uint64
}

// upNeed returns the length of the frame buf begins, or until its
// header shows that, a lower bound on it.
func upNeed(buf []byte) (int, error) {
	switch buf[0] {
	case UpReadReturn:
		if len(buf) < 3 {
			return 5, nil // a read return of no words
		}
		return 5 + 2*int(buf[2]), nil
	case UpPrintf:
		if len(buf) < 3 {
			return 3, nil // a printf of no bytes
		}
		return 3 + int(buf[2]), nil
	case UpScanf:
		return 2, nil
	default:
		return 0, fmt.Errorf("serial: unknown upstream frame %#02x", buf[0])
	}
}

// Need returns a lower bound on the bytes, the next one counted, that
// must arrive before the parser can complete a frame (RX.Need).
func (p *UpParser) Need() int {
	if len(p.buf) == 0 {
		return 2 // a scanf request
	}
	n, _ := upNeed(p.buf) // buf begins with a known frame code
	return n - len(p.buf)
}

// Feed consumes one byte, returning a decoded message when a frame
// completes. The message's Src field carries the originating IP.
func (p *UpParser) Feed(b byte) (*noc.Message, bool) {
	p.buf = append(p.buf, b)
	n, err := upNeed(p.buf)
	if err != nil {
		p.Errors++
		p.buf = p.buf[:0]
		return nil, false
	}
	if len(p.buf) < n {
		return nil, false
	}
	buf := p.buf
	p.buf = p.buf[:0]
	p.Frames++
	src := noc.DecodeAddr(uint16(buf[1]))
	switch buf[0] {
	case UpReadReturn:
		m := &noc.Message{Svc: noc.SvcReadReturn, Src: src,
			Addr: uint16(buf[3])<<8 | uint16(buf[4])}
		for i := 5; i+1 < len(buf); i += 2 {
			m.Words = append(m.Words, uint16(buf[i])<<8|uint16(buf[i+1]))
		}
		return m, true
	case UpPrintf:
		m := &noc.Message{Svc: noc.SvcPrintf, Src: src}
		m.Bytes = append(m.Bytes, buf[3:]...)
		return m, true
	default:
		return &noc.Message{Svc: noc.SvcScanf, Src: src}, true
	}
}

// EncodeDown serializes a host command into frame bytes (the inverse of
// downParser, used by the host model).
func EncodeDown(tgt noc.Addr, m *noc.Message) ([]byte, error) {
	t := byte(tgt.Encode())
	switch m.Svc {
	case noc.SvcReadMem:
		if m.Count < 1 || m.Count > 255 {
			return nil, fmt.Errorf("serial: read count %d out of byte range", m.Count)
		}
		return []byte{CmdRead, t, byte(m.Count), byte(m.Addr >> 8), byte(m.Addr)}, nil
	case noc.SvcWriteMem:
		if len(m.Words) < 1 || len(m.Words) > 255 {
			return nil, fmt.Errorf("serial: write of %d words out of byte range", len(m.Words))
		}
		out := []byte{CmdWrite, t, byte(len(m.Words)), byte(m.Addr >> 8), byte(m.Addr)}
		for _, w := range m.Words {
			out = append(out, byte(w>>8), byte(w))
		}
		return out, nil
	case noc.SvcActivate:
		return []byte{CmdActivate, t}, nil
	case noc.SvcScanfReturn:
		if len(m.Words) != 1 {
			return nil, fmt.Errorf("serial: scanf return wants 1 word, got %d", len(m.Words))
		}
		return []byte{CmdScanfReturn, t, byte(m.Words[0] >> 8), byte(m.Words[0])}, nil
	default:
		return nil, fmt.Errorf("serial: service %s cannot be sent by the host", m.Svc)
	}
}
