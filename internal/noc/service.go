package noc

import "fmt"

// Service identifies one of the nine packet formats the Hermes NoC in
// MultiNoC supports (§2.1). The numbering follows the paper's list.
type Service uint8

// The nine services, in the paper's order.
const (
	SvcReadMem     Service = 1 // request data from a memory
	SvcReadReturn  Service = 2 // response to a read request
	SvcWriteMem    Service = 3 // store data into a memory
	SvcActivate    Service = 4 // start a processor at address 0
	SvcPrintf      Service = 5 // processor -> host output
	SvcScanf       Service = 6 // processor -> host input request
	SvcScanfReturn Service = 7 // host -> processor input data
	SvcNotify      Service = 8 // wake a processor blocked on wait
	SvcWait        Service = 9 // registration of a blocked processor
)

var serviceNames = map[Service]string{
	SvcReadMem:     "read from memory",
	SvcReadReturn:  "read return",
	SvcWriteMem:    "write in memory",
	SvcActivate:    "activate processor",
	SvcPrintf:      "printf",
	SvcScanf:       "scanf",
	SvcScanfReturn: "scanf return",
	SvcNotify:      "notify",
	SvcWait:        "wait",
}

// String returns the paper's name for the service.
func (s Service) String() string {
	if n, ok := serviceNames[s]; ok {
		return n
	}
	return fmt.Sprintf("service(%d)", uint8(s))
}

// Message is the decoded form of a service packet. Which fields are
// meaningful depends on Svc; Encode and DecodeMessage define the
// payload layout of each service.
type Message struct {
	Svc Service
	// Src is the mesh address of the originating IP, carried in the
	// payload so that replies can be routed.
	Src Addr
	// Addr is the memory address for read/write/read-return.
	Addr uint16
	// Count is the word count of a read request.
	Count int
	// Words carries 16-bit data for write/read-return/scanf-return.
	Words []uint16
	// Bytes carries printf text.
	Bytes []byte
	// Proc is the processor number for notify/wait.
	Proc uint16
}

// maxWordsPerPacket limits chunked read/write payloads so a packet's
// size flit stays expressible with 8-bit flits: 255 payload flits
// leaves room for svc+src+addr (4 flits) plus 125 words of 2 flits.
const maxWordsPerPacket = 125

// MaxServiceWords is the largest word count Encode accepts in a single
// read-return or write packet. Longer transfers are split by callers
// (see SplitWords).
const MaxServiceWords = maxWordsPerPacket

// Encode flattens the message into packet payload flits (byte-per-flit
// layout; works for all supported flit widths).
func (m *Message) Encode() ([]uint16, error) {
	p := []uint16{uint16(m.Svc), m.Src.Encode()}
	switch m.Svc {
	case SvcReadMem:
		if m.Count < 1 || m.Count > maxWordsPerPacket {
			return nil, fmt.Errorf("noc: read count %d out of range [1,%d]", m.Count, maxWordsPerPacket)
		}
		p = append(p, m.Addr>>8, m.Addr&0xFF, uint16(m.Count))
	case SvcReadReturn, SvcWriteMem:
		if len(m.Words) == 0 || len(m.Words) > maxWordsPerPacket {
			return nil, fmt.Errorf("noc: %s with %d words, want [1,%d]", m.Svc, len(m.Words), maxWordsPerPacket)
		}
		p = append(p, m.Addr>>8, m.Addr&0xFF)
		for _, w := range m.Words {
			p = append(p, w>>8, w&0xFF)
		}
	case SvcActivate, SvcScanf:
		// svc + src only
	case SvcPrintf:
		if len(m.Bytes) > 250 {
			return nil, fmt.Errorf("noc: printf of %d bytes exceeds 250", len(m.Bytes))
		}
		p = append(p, uint16(len(m.Bytes)))
		for _, b := range m.Bytes {
			p = append(p, uint16(b))
		}
	case SvcScanfReturn:
		if len(m.Words) != 1 {
			return nil, fmt.Errorf("noc: scanf return carries %d words, want 1", len(m.Words))
		}
		p = append(p, m.Words[0]>>8, m.Words[0]&0xFF)
	case SvcNotify, SvcWait:
		p = append(p, m.Proc)
	default:
		return nil, fmt.Errorf("noc: unknown service %d", m.Svc)
	}
	return p, nil
}

// DecodeMessage parses a received service packet payload.
func DecodeMessage(payload []uint16) (*Message, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("noc: service packet of %d flits too short", len(payload))
	}
	m := &Message{Svc: Service(payload[0]), Src: DecodeAddr(payload[1])}
	rest := payload[2:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("noc: %s packet truncated: %d payload flits", m.Svc, len(payload))
		}
		return nil
	}
	switch m.Svc {
	case SvcReadMem:
		if err := need(3); err != nil {
			return nil, err
		}
		m.Addr = rest[0]<<8 | rest[1]&0xFF
		m.Count = int(rest[2])
		if m.Count < 1 || m.Count > maxWordsPerPacket {
			return nil, fmt.Errorf("noc: read count %d out of range [1,%d]", m.Count, maxWordsPerPacket)
		}
	case SvcReadReturn, SvcWriteMem:
		if err := need(4); err != nil {
			return nil, err
		}
		m.Addr = rest[0]<<8 | rest[1]&0xFF
		data := rest[2:]
		if len(data)%2 != 0 {
			return nil, fmt.Errorf("noc: %s packet with odd data flit count %d", m.Svc, len(data))
		}
		for i := 0; i < len(data); i += 2 {
			m.Words = append(m.Words, data[i]<<8|data[i+1]&0xFF)
		}
	case SvcActivate, SvcScanf:
		// nothing further
	case SvcPrintf:
		if err := need(1); err != nil {
			return nil, err
		}
		n := int(rest[0])
		if err := need(1 + n); err != nil {
			return nil, err
		}
		for _, v := range rest[1 : 1+n] {
			m.Bytes = append(m.Bytes, byte(v))
		}
	case SvcScanfReturn:
		if err := need(2); err != nil {
			return nil, err
		}
		m.Words = []uint16{rest[0]<<8 | rest[1]&0xFF}
	case SvcNotify, SvcWait:
		if err := need(1); err != nil {
			return nil, err
		}
		m.Proc = rest[0]
	default:
		return nil, fmt.Errorf("noc: unknown service %d", payload[0])
	}
	return m, nil
}

// SendMessage encodes m and stages it on the endpoint.
func (e *Endpoint) SendMessage(dst Addr, m *Message) (*PacketMeta, error) {
	if m.Src == (Addr{}) {
		m.Src = e.addr
	}
	payload, err := m.Encode()
	if err != nil {
		return nil, err
	}
	return e.Send(dst, payload)
}

// RecvMessage pops and decodes the oldest received packet. It reports
// false when no packet is pending and an error when the packet is not a
// well-formed service packet.
func (e *Endpoint) RecvMessage() (*Message, bool, error) {
	p, ok := e.Recv()
	if !ok {
		return nil, false, nil
	}
	m, err := DecodeMessage(p.Payload)
	if err != nil {
		return nil, true, err
	}
	return m, true, nil
}

// WordSpan is a contiguous run of 16-bit words starting at Addr.
type WordSpan struct {
	Addr  uint16
	Words []uint16
}

// SplitWords chunks a word transfer into service-packet-sized spans.
func SplitWords(addr uint16, words []uint16) []WordSpan {
	var out []WordSpan
	for len(words) > 0 {
		n := len(words)
		if n > maxWordsPerPacket {
			n = maxWordsPerPacket
		}
		out = append(out, WordSpan{Addr: addr, Words: words[:n]})
		addr += uint16(n)
		words = words[n:]
	}
	return out
}
