package server

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// The fast path of request decoding. The bodies that carry facts —
// /v1/certain, /v1/db/create, /v1/db/insert, /v1/db/delete — are flat
// objects of strings and booleans, and almost all of their bytes are one
// string, the fact text. decodeFlat decodes the canonical form of such a
// body in one pass over the bytes; anything else goes, unchanged, to
// decodeJSON, so every rejection and every edge case (case-folded keys,
// null, \u escapes, duplicate keys, invalid UTF-8, trailing data) keeps
// encoding/json's behaviour and message.

// member is one key of a flat request object: its exact name, and where
// its value goes — str for a string, flag for a boolean.
type member struct {
	name string
	str  *string
	flag *bool
}

// maxMembers bounds the members of one flat object; every request type
// lists at most this many.
const maxMembers = 4

// decodeFlat decodes body into members and reports true when body is one
// JSON object, with optional whitespace around it, whose keys are
// members' names spelled exactly, unescaped and at most once each, and
// whose values are strings for str members and true or false for flag
// members. A string qualifies when it holds valid UTF-8, no control
// character and no \u escape. encoding/json decodes such a body to the
// same values. On false nothing has been written.
func decodeFlat(body []byte, members []member) bool {
	var strs [maxMembers]string
	var flags [maxMembers]bool
	seen := 0
	i := skipWS(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = skipWS(body, i+1)
	if i < len(body) && body[i] == '}' {
		i++
	} else {
		for {
			// The key: a plain string naming an unseen member.
			if i == len(body) || body[i] != '"' {
				return false
			}
			end := bytes.IndexByte(body[i+1:], '"')
			if end < 0 {
				return false
			}
			key := body[i+1 : i+1+end]
			m := -1
			for j := range members {
				if string(key) == members[j].name {
					m = j
					break
				}
			}
			if m < 0 || seen&(1<<m) != 0 {
				return false
			}
			seen |= 1 << m
			i = skipWS(body, i+end+2)
			if i == len(body) || body[i] != ':' {
				return false
			}
			i = skipWS(body, i+1)
			// The value.
			var ok bool
			if members[m].str != nil {
				strs[m], i, ok = flatString(body, i)
			} else {
				flags[m], i, ok = flatBool(body, i)
			}
			if !ok {
				return false
			}
			i = skipWS(body, i)
			if i == len(body) {
				return false
			}
			if body[i] == '}' {
				i++
				break
			}
			if body[i] != ',' {
				return false
			}
			i = skipWS(body, i+1)
		}
	}
	if skipWS(body, i) != len(body) {
		return false
	}
	for j, m := range members {
		if seen&(1<<j) == 0 {
			continue
		}
		if m.str != nil {
			*m.str = strs[j]
		} else {
			*m.flag = flags[j]
		}
	}
	return true
}

// skipWS returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// flatBool reads the literal true or false at b[i].
func flatBool(b []byte, i int) (v bool, next int, ok bool) {
	if bytes.HasPrefix(b[i:], []byte("true")) {
		return true, i + 4, true
	}
	if bytes.HasPrefix(b[i:], []byte("false")) {
		return false, i + 5, true
	}
	return false, i, false
}

// plain marks the bytes that stand for themselves inside a JSON string:
// everything but control characters, the quote, the backslash, and the
// bytes of multi-byte UTF-8 sequences, which are validated one rune at a
// time.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape maps the byte after a backslash to what the escape stands
// for; 0 marks the escapes the fast path leaves to encoding/json (\u)
// and invalid ones.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// special returns a mask whose lowest set bit is the high bit of the
// first byte of x (little-endian) that plain does not mark, or 0 when
// all eight are plain. Bits above the lowest may be spurious.
func special(x uint64) uint64 {
	control := (x - 0x20*ones) &^ x
	quote := x ^ '"'*ones
	backslash := x ^ '\\'*ones
	return (control | (quote-ones)&^quote | (backslash-ones)&^backslash | x) & highs
}

// flatString reads the string at b[i], eight plain bytes at a time. A
// string without escapes is one slice of b; the first escape starts a
// copy, sized for the rest of the body, that the runs between escapes
// are appended to.
func flatString(b []byte, i int) (v string, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return "", i, false
	}
	start := i + 1
	run := start // the first byte not yet copied
	var sb strings.Builder
	for i = start; ; {
		for i+8 <= len(b) {
			if m := special(binary.LittleEndian.Uint64(b[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
			i += 8
		}
		if i == len(b) {
			return "", i, false
		}
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			if sb.Cap() == 0 {
				return string(b[start:i]), i + 1, true
			}
			sb.Write(b[run:i])
			return sb.String(), i + 1, true
		case c == '\\':
			if i+1 == len(b) || unescape[b[i+1]] == 0 {
				return "", i, false
			}
			if sb.Cap() == 0 {
				sb.Grow(len(b) - start)
			}
			sb.Write(b[run:i])
			sb.WriteByte(unescape[b[i+1]])
			i += 2
			run = i
		case c < utf8.RuneSelf: // a control character
			return "", i, false
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return "", i, false
			}
			i += n
		}
	}
}
