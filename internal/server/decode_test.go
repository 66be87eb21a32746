package server

import (
	"encoding/json"
	"strings"
	"testing"
)

// The bodies clients send — encoding/json's own output, with fact text
// full of line breaks, quotes and non-ASCII constants — take the fast
// path, and it decodes them as encoding/json does; a body it cannot
// decode exactly is handed on.
func TestDecodeFlat(t *testing.T) {
	for _, req := range []CertainRequest{
		{Query: "R(x | y), !S(y | x)", Facts: "R(a | b)\nS(b | 'two words')  # c\n\tR('x\"y' | 'smörgås')\r\n"},
		{Query: "R('k00012' | x), !S('k00012' | x)", Database: "w", Explain: true},
		{Query: "R(x | y)", Facts: "R(a | '\\\\/')\n"},
		{},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got CertainRequest
		if !decodeFlat(body, got.members()) {
			t.Errorf("%s: not decoded by the fast path", body)
		} else if got != req {
			t.Errorf("%s: decoded %+v, want %+v", body, got, req)
		}
	}
	for _, body := range []string{
		`{"query":"R(x | y)","facts":"R(a | b)\u000a"}`, // \u escape
		`{"query":"R(x | y)","Facts":"R(a | b)"}`,       // case-folded key
		`{"query":"R(x | y)","query":"R(x | y)"}`,       // duplicate key
		`{"query":"R(x | y)","explain":null}`,           // null
		"{\"query\":\"R(x | \xc3y)\"}",                  // invalid UTF-8
		"{\"query\":\"R(x |\ny)\"}",                     // raw control character
		`{"query":"R(x | y)"} {}`,                       // trailing data
		`{"query":"R(x | y)","unknown":"u"}`,            // unknown key
	} {
		var got CertainRequest
		if decodeFlat([]byte(body), got.members()) {
			t.Errorf("%s: decoded by the fast path as %+v", body, got)
		}
		if got != (CertainRequest{}) {
			t.Errorf("%s: the refused fast path wrote %+v", body, got)
		}
	}
}

// Each byte class at every offset of the eight-byte stride, so that the
// word-at-a-time scan finds the first byte that needs a look wherever
// it falls: the fast path and encoding/json agree on every body.
func TestDecodeFlatStride(t *testing.T) {
	specials := []string{"\x00", "\x1f", " ", "\x7f", `\"`, `\\`, `\n`, `A`, `\x`, "\"", "é", "\xc3", "\xff", "😀", "\xed\xa0\x80"}
	for _, sp := range specials {
		for pre := 0; pre < 17; pre++ {
			for post := 0; post < 10; post += 3 {
				s := strings.Repeat("a", pre) + sp + strings.Repeat("b", post)
				sameDecode(t, []byte(`{"query":"R(x | y)","facts":"`+s+`"}`), (*CertainRequest).members)
			}
		}
	}
}
