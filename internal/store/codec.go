package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// The record codec. A segment line is "%08x <json>\n": the CRC-32 of
// the JSON body, a space, the body, a newline. The body is what
// json.Marshal(Record) produces. Decoding reads the shape json.Marshal
// writes without reflection and hands anything else to json.Unmarshal,
// which remains the definition (FuzzRecordCodec holds the two to each
// other).

// appendLine appends rec's framed segment line to dst.
func appendLine(dst []byte, rec *Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	dst = hex.AppendEncode(dst, crc[:])
	dst = append(dst, ' ')
	dst = append(dst, body...)
	return append(dst, '\n'), nil
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

// number reads a run of number bytes and lets json.Valid hold it to
// JSON's number grammar (no "+1", "01" or "1."); strconv then refuses
// what encoding/json would also refuse (a fraction for an integer field,
// a value out of range).
func (p *recordParser) number(prefix string) []byte {
	if !p.lit(prefix) {
		return nil
	}
	i := 0
	for i < len(p.b) && strings.IndexByte("0123456789+-.eE", p.b[i]) >= 0 {
		i++
	}
	num := p.b[:i]
	if !json.Valid(num) {
		p.bad = true
		return nil
	}
	p.b = p.b[i:]
	return num
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
