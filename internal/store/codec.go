package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
)

// The record codec. A segment line is "%08x <json>\n": the CRC-32 of
// the JSON body, a space, the body, a newline. The body is what
// json.Marshal(Record) produces, with the payload encoded in place
// (recordOf). Decoding reads the shape json.Marshal writes without
// reflection and hands anything else to json.Unmarshal, which remains
// the definition (FuzzRecordCodec holds the two to each other).

// recordOf is a Record whose payload is a typed value: the outer
// Payload field dominates the embedded one, and encoding/json orders
// fields by index, so it encodes as the Record that carries
// json.Marshal(v) as its payload does — the value is encoded once,
// inside the record.
type recordOf[T any] struct {
	Record
	Payload T `json:"payload"`
}

// payloadField precedes the payload in every body: it is the body's
// last field, and no header string can hold an unescaped quote.
var payloadField = []byte(`,"payload":`)

// appendLine appends the framed segment line of rec carrying payload v
// to dst. It returns the extended buffer and the payload's bytes within
// the line.
func appendLine[T any](dst []byte, rec *Record, v T) (out, payload []byte, err error) {
	w := lineWriter{b: dst, start: len(dst)}
	if err := json.NewEncoder(&w).Encode(recordOf[T]{*rec, v}); err != nil {
		return dst, nil, err
	}
	line := w.b[w.start:]
	body := line[9 : len(line)-1] // Encode ends the body with '\n'
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	hex.Encode(line[:8], crc[:])
	line[8] = ' '
	payload = body[bytes.Index(body, payloadField)+len(payloadField) : len(body)-1]
	return w.b, payload, nil
}

// lineWriter receives the encoder's body and newline after room for
// the CRC field, growing its buffer once to the line's size.
type lineWriter struct {
	b     []byte
	start int
}

func (w *lineWriter) Write(p []byte) (int, error) {
	if len(w.b) == w.start {
		w.b = append(slices.Grow(w.b, 9+len(p)), "CRC32HEX "...)
	}
	w.b = append(w.b, p...)
	return len(p), nil
}

// parseLine validates one complete (newline-terminated) framed record
// line.
func parseLine(raw []byte) (Record, string) {
	line := bytes.TrimSuffix(raw, []byte("\n"))
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, "malformed framing (want \"CRC32HEX <json>\")"
	}
	var crc [4]byte
	if _, err := hex.Decode(crc[:], line[:8]); err != nil {
		return Record{}, "malformed checksum field"
	}
	want := binary.BigEndian.Uint32(crc[:])
	body := line[9:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return Record{}, fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	rec, ok := parseRecord(body)
	if !ok {
		if err := json.Unmarshal(body, &rec); err != nil {
			return Record{}, "checksum ok but JSON undecodable: " + err.Error()
		}
	}
	if rec.Key == "" {
		return Record{}, "record has no key"
	}
	return rec, ""
}

// parseRecord decodes a body in exactly the shape json.Marshal writes
// when nothing needs escaping:
// the fields in struct order, tier and worker optional, every string
// unescaped printable ASCII, the integers and the wall time in JSON's
// number grammar, and a valid payload with nothing around it. It
// reports false for anything else, and the caller falls back to
// json.Unmarshal; whenever it accepts, its record is the one
// json.Unmarshal would produce. The record shares no memory with body.
func parseRecord(body []byte) (Record, bool) {
	p := recordParser{b: body}
	var rec Record
	rec.Key = p.str(`{"key":`)
	rec.Point = p.str(`,"point":`)
	rec.Seed = p.int(`,"seed":`, 64)
	rec.BaseSeed = p.int(`,"base_seed":`, 64)
	rec.EngineSchema = int(p.int(`,"engine_schema":`, strconv.IntSize))
	rec.StoreSchema = int(p.int(`,"store_schema":`, strconv.IntSize))
	rec.Engine = p.str(`,"engine":`)
	if p.peek(`,"tier":`) {
		rec.Tier = p.str(`,"tier":`)
	}
	if p.peek(`,"worker":`) {
		rec.Worker = p.str(`,"worker":`)
	}
	rec.WallMS = p.float(`,"wall_ms":`)
	rec.Created = p.str(`,"created":`)
	if !p.lit(`,"payload":`) || len(p.b) < 2 || p.b[len(p.b)-1] != '}' {
		return Record{}, false
	}
	payload := p.b[:len(p.b)-1]
	if isSpace(payload[0]) || isSpace(payload[len(payload)-1]) || !json.Valid(payload) {
		return Record{}, false
	}
	rec.Payload = bytes.Clone(payload)
	return rec, true
}

// isSpace reports JSON's insignificant whitespace, which json.Unmarshal
// drops from around a raw payload.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// recordParser consumes a body front to back; the first mismatch sets
// bad, after which every step is a no-op.
type recordParser struct {
	b   []byte
	bad bool
}

func (p *recordParser) peek(prefix string) bool {
	return !p.bad && len(p.b) >= len(prefix) && string(p.b[:len(prefix)]) == prefix
}

func (p *recordParser) lit(prefix string) bool {
	if !p.peek(prefix) {
		p.bad = true
		return false
	}
	p.b = p.b[len(prefix):]
	return true
}

// str reads a quoted string of printable ASCII with no escapes.
func (p *recordParser) str(prefix string) string {
	if !p.lit(prefix) || len(p.b) == 0 || p.b[0] != '"' {
		p.bad = true
		return ""
	}
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := string(p.b[1:i])
			p.b = p.b[i+1:]
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// number reads a number in JSON's grammar (no "+1", "01" or "1.");
// strconv then refuses what encoding/json would also refuse (a fraction
// for an integer field, a value out of range). A number byte left after
// it fails the literal that follows, as json.Unmarshal fails it.
func (p *recordParser) number(prefix string) []byte {
	if !p.lit(prefix) {
		return nil
	}
	b, i, ok := p.b, 0, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		ok = false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		ok = ok && j > i+1
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		ok = ok && j > i
		i = j
	}
	if !ok {
		p.bad = true
		return nil
	}
	p.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (p *recordParser) int(prefix string, bits int) int64 {
	s := p.number(prefix)
	if p.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(s), 10, bits)
	if err != nil {
		p.bad = true
	}
	return v
}

func (p *recordParser) float(prefix string) float64 {
	s := p.number(prefix)
	if p.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		p.bad = true
	}
	return v
}
