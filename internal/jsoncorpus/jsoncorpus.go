// Package jsoncorpus opens the second document universe: JSON corpora
// mapped onto the same (summary, keyword) index machinery the engine
// runs over XML. The paper's summary/sid self-management is structural,
// not XML-specific — a JSON document is just another labeled tree — so
// this package defines one canonical, invertible mapping:
//
//   - objects become elements, keys become tags (escaped into the XML
//     name alphabet, see EncodeKey),
//   - arrays become repeated siblings carrying the member's tag,
//   - scalars become text runs (numbers, bools and null carry a type
//     attribute so the mapping inverts losslessly).
//
// Map builds the element tree and term groups DIRECTLY from the JSON
// bytes, computing byte offsets by laying out the canonical
// XML rendering without going through the XML scanner. ToXML produces
// that rendering as real bytes; FromXML inverts it. The cross-universe
// differential oracle (internal/oracle) asserts that indexing a JSON
// collection through Map and indexing its ToXML rendering through
// xmlscan produce byte-identical rankings — two independent
// implementations of the same layout spec checking each other.
//
// JSONPathToNEXI binds a JSONPath-flavored query syntax onto NEXI so
// existing translation, planning and all four retrieval strategies run
// unchanged over JSON collections.
package jsoncorpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"trex/internal/xmlscan"
)

// Doc is the result of mapping one JSON document into the element
// universe: the parsed tree, the grouped terms, and the canonical XML
// rendering all offsets refer to.
type Doc struct {
	// Root is the element tree; offsets (Start/End) are byte positions
	// within XML, exactly as xmlscan.Parse(XML) would assign them.
	Root *xmlscan.Node
	// Groups are the terms with offsets into XML, exactly as an
	// xmlscan.Grouper parsing XML would group them. Empty when Map was
	// given no grouper.
	Groups xmlscan.TermGroups
	// XML is the canonical rendering (deterministic bytes: object keys
	// sorted, no inter-tag whitespace).
	XML []byte
}

// RootTag is the synthetic element wrapping every mapped document.
const RootTag = "doc"

// ItemTag is the synthetic element wrapping items of nested arrays
// (arrays that are themselves array items, where there is no member key
// to repeat).
const ItemTag = "el"

// decode parses JSON bytes preserving number literals verbatim
// (json.Number), rejecting trailing data that is itself a JSON value.
// end is where the accepted value ends in data.
func decode(data []byte) (v any, end int, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, 0, fmt.Errorf("jsoncorpus: %w", err)
	}
	end = int(dec.InputOffset())
	// A second Decode must fail: "1 2" is not one document.
	var trailing any
	if err := dec.Decode(&trailing); err == nil {
		return nil, 0, fmt.Errorf("jsoncorpus: trailing data after JSON value")
	}
	return v, end, nil
}

// Map parses one JSON document and maps it into the element universe,
// grouping its terms with g (nil skips tokenizing). See Doc for what the
// offsets mean.
func Map(data []byte, g *xmlscan.Grouper) (*Doc, error) {
	return new(Mapper).Map(data, g)
}

// ToXML returns the canonical XML rendering of a JSON document.
func ToXML(data []byte) ([]byte, error) {
	d, err := Map(data, nil)
	if err != nil {
		return nil, err
	}
	return d.XML, nil
}

// Canonical returns the canonical JSON form of a document: object keys
// sorted, number literals preserved, strings minimally escaped. It is
// the fixpoint FromXML(ToXML(x)) lands on. It decodes with
// encoding/json, independently of Map's parser, so the round trip
// FromXML(ToXML(x)) == Canonical(x) checks one against the other.
func Canonical(data []byte) ([]byte, error) {
	v, _, err := decode(data)
	if err != nil {
		return nil, err
	}
	return appendCanonical(nil, v), nil
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendEscapedText escapes the three markup bytes; everything else
// (including control bytes and non-UTF8) passes through as text.
func appendEscapedText(buf []byte, s []byte) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// unescapeText inverts appendEscapedText. Unknown entities are an
// error: canonical renderings only ever contain the three above.
func unescapeText(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		switch {
		case strings.HasPrefix(s[i:], "&amp;"):
			sb.WriteByte('&')
			i += 5
		case strings.HasPrefix(s[i:], "&lt;"):
			sb.WriteByte('<')
			i += 4
		case strings.HasPrefix(s[i:], "&gt;"):
			sb.WriteByte('>')
			i += 4
		default:
			return "", fmt.Errorf("jsoncorpus: unknown entity at byte %d", i)
		}
	}
	return sb.String(), nil
}

const hexDigits = "0123456789abcdef"

// EncodeKey maps an arbitrary JSON object key into the XML/NEXI name
// alphabet [A-Za-z0-9_]: letters and (non-leading) digits pass through,
// every other byte becomes "_xx" (two lowercase hex digits). The empty
// key encodes as "_". The encoding is injective, so distinct keys never
// collide as tags, and DecodeKey inverts it exactly.
func EncodeKey(key string) string {
	if key == "" {
		return "_"
	}
	if isPlainKey(key) {
		return key
	}
	var sb strings.Builder
	for i := 0; i < len(key); i++ {
		b := key[i]
		switch {
		case b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z':
			sb.WriteByte(b)
		case b >= '0' && b <= '9' && i > 0:
			sb.WriteByte(b)
		default:
			sb.WriteByte('_')
			sb.WriteByte(hexDigits[b>>4])
			sb.WriteByte(hexDigits[b&0x0f])
		}
	}
	return sb.String()
}

// isPlainKey reports whether EncodeKey passes key through unchanged.
func isPlainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		b := key[i]
		if !(b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' && i > 0) {
			return false
		}
	}
	return true
}

// DecodeKey inverts EncodeKey; it errors on byte sequences EncodeKey
// cannot produce.
func DecodeKey(tag string) (string, error) {
	if tag == "_" {
		return "", nil
	}
	var sb strings.Builder
	for i := 0; i < len(tag); {
		b := tag[i]
		if b != '_' {
			sb.WriteByte(b)
			i++
			continue
		}
		if i+2 >= len(tag) || !isHex(tag[i+1]) || !isHex(tag[i+2]) {
			return "", fmt.Errorf("jsoncorpus: tag %q: truncated escape at byte %d", tag, i)
		}
		sb.WriteByte(unhex(tag[i+1])<<4 | unhex(tag[i+2]))
		i += 3
	}
	return sb.String(), nil
}

func isHex(b byte) bool { return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' }
func unhex(b byte) byte {
	if b <= '9' {
		return b - '0'
	}
	return b - 'a' + 10
}

// appendCanonical renders a decoded JSON value in canonical form:
// object keys sorted, number literals verbatim, strings escaped with
// the fixed scheme below. Both Canonical and FromXML funnel through
// this, so byte comparison between them is meaningful.
func appendCanonical(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case bool:
		if x {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case json.Number:
		return append(buf, x.String()...)
	case string:
		return appendJSONString(buf, x)
	case map[string]any:
		buf = append(buf, '{')
		for i, k := range sortedKeys(x) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			buf = append(buf, ':')
			buf = appendCanonical(buf, x[k])
		}
		return append(buf, '}')
	case []any:
		buf = append(buf, '[')
		for i, item := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendCanonical(buf, item)
		}
		return append(buf, ']')
	default:
		panic(fmt.Sprintf("jsoncorpus: impossible decoded type %T", v))
	}
}

// appendJSONString writes a JSON string literal: the two mandatory
// escapes plus control characters; no HTML escaping.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b == '"' || b == '\\':
			buf = append(buf, '\\', b)
		case b == '\n':
			buf = append(buf, '\\', 'n')
		case b == '\r':
			buf = append(buf, '\\', 'r')
		case b == '\t':
			buf = append(buf, '\\', 't')
		case b < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0x0f])
		default:
			buf = append(buf, b)
		}
	}
	return append(buf, '"')
}
