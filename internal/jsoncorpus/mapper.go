package jsoncorpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"trex/internal/xmlscan"
)

// Mapper maps JSON documents into the element universe. It parses a
// document into a flat value table (strings unquoted into one arena,
// containers' children in one index slice) and lays out the canonical
// rendering from it; the table, the arena and the rendering buffer are
// reused from one document to the next, and tags are interned, so a
// document's tree costs two allocations (its node and child slabs)
// however many elements it has. One worker keeps one Mapper; a Mapper
// is not safe for concurrent use. The zero value is ready to use.
//
// What Map accepts, and the values it reads, are encoding/json's: input
// that json.Valid accepts is parsed directly; any other input goes
// through the decoder first, which rejects it or names the prefix that
// holds the one value it accepts (decode).
type Mapper struct {
	vals  []jsonValue       // the document's values, parents before children
	kids  []int32           // children of every container, contiguous per container
	stack []int32           // children of the containers being parsed
	arena []byte            // unquoted strings, keys and number literals
	buf   []byte            // the canonical rendering
	tags  map[string]string // member key -> tag, for every key seen
	g     *xmlscan.Grouper  // nil: no terms wanted

	nodes    []xmlscan.Node  // the current document's element slab
	children []*xmlscan.Node // the current document's child-pointer slab
}

// jsonValue is one value of a parsed document. Spans index the arena
// (text, key) or the kids slice (children).
type jsonValue struct {
	kind           byte // one of the kind constants below
	text0, text1   int32
	key0, key1     int32 // member key, for a value inside an object
	child0, child1 int32
}

// Value kinds: the type attribute letters of the rendering, plus 's'
// for strings (which carry none) and 't'/'f' for the two booleans.
const (
	kindNull   = 'z'
	kindTrue   = 't'
	kindFalse  = 'f'
	kindNumber = 'n'
	kindString = 's'
	kindObject = 'o'
	kindArray  = 'v'
)

// Map parses one JSON document and maps it into the element universe,
// grouping its terms with g (nil skips tokenizing). The returned Doc's
// XML is the mapper's buffer: it is valid until the next Map.
func (m *Mapper) Map(data []byte, g *xmlscan.Grouper) (*Doc, error) {
	if !json.Valid(data) {
		_, end, err := decode(data)
		if err != nil {
			return nil, err
		}
		if data = data[:end]; !json.Valid(data) {
			return nil, fmt.Errorf("jsoncorpus: decoder accepted %q, which is not one JSON value", data)
		}
	}
	m.vals, m.kids, m.stack, m.arena = m.vals[:0], m.kids[:0], m.stack[:0], m.arena[:0]
	if len(m.tags) > maxTags {
		m.tags = nil
	}
	m.value(data, skipSpace(data, 0))

	m.buf, m.g = m.buf[:0], g
	m.nodes = make([]xmlscan.Node, 0, len(m.vals))
	m.children = make([]*xmlscan.Node, 0, len(m.vals))
	d := &Doc{Root: m.element(RootTag, false, 0, nil)}
	m.nodes, m.children, m.g = nil, nil, nil
	d.XML = m.buf
	if g != nil {
		d.Groups = g.Finish()
	}
	return d, nil
}

func skipSpace(data []byte, p int) int {
	for p < len(data) && (data[p] == ' ' || data[p] == '\t' || data[p] == '\n' || data[p] == '\r') {
		p++
	}
	return p
}

// value parses the valid JSON value at data[p] into the table and
// returns the position after it.
func (m *Mapper) value(data []byte, p int) int {
	i := len(m.vals)
	m.vals = append(m.vals, jsonValue{})
	switch c := data[p]; c {
	case '{', '[':
		mark := len(m.stack)
		p = skipSpace(data, p+1)
		for data[p] != '}' && data[p] != ']' {
			var k0, k1 int32
			if c == '{' {
				k0 = int32(len(m.arena))
				p = skipSpace(data, m.unquote(data, p)) + 1 // past the ':'
				k1 = int32(len(m.arena))
			}
			v := int32(len(m.vals))
			p = skipSpace(data, m.value(data, skipSpace(data, p)))
			m.vals[v].key0, m.vals[v].key1 = k0, k1
			m.stack = append(m.stack, v)
			if data[p] == ',' {
				p = skipSpace(data, p+1)
			}
		}
		members := m.stack[mark:]
		kind := byte(kindArray)
		if c == '{' {
			kind = kindObject
			members = m.sortMembers(members)
		}
		m.vals[i] = jsonValue{kind: kind, child0: int32(len(m.kids))}
		m.kids = append(m.kids, members...)
		m.vals[i].child1 = int32(len(m.kids))
		m.stack = m.stack[:mark]
		return p + 1
	case '"':
		t0 := int32(len(m.arena))
		p = m.unquote(data, p)
		m.vals[i] = jsonValue{kind: kindString, text0: t0, text1: int32(len(m.arena))}
		return p
	case 't':
		m.vals[i].kind = kindTrue
		return p + len("true")
	case 'f':
		m.vals[i].kind = kindFalse
		return p + len("false")
	case 'n':
		m.vals[i].kind = kindNull
		return p + len("null")
	default:
		// A number: its literal is kept verbatim, as json.Number keeps it.
		q := p
		for q < len(data) && strings.IndexByte("+-.0123456789eE", data[q]) >= 0 {
			q++
		}
		t0 := int32(len(m.arena))
		m.arena = append(m.arena, data[p:q]...)
		m.vals[i] = jsonValue{kind: kindNumber, text0: t0, text1: int32(len(m.arena))}
		return q
	}
}

// sortMembers orders an object's members by key and keeps, of members
// with equal keys, the last — the keys a decoded map[string]any would
// hold, in sorted order.
func (m *Mapper) sortMembers(members []int32) []int32 {
	key := func(v int32) []byte { return m.arena[m.vals[v].key0:m.vals[v].key1] }
	slices.SortStableFunc(members, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	out := members[:0]
	for j, v := range members {
		if j+1 < len(members) && bytes.Equal(key(v), key(members[j+1])) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// unquote appends the valid JSON string at data[p] to the arena,
// decoded exactly as encoding/json decodes it, and returns the position
// after its closing quote.
func (m *Mapper) unquote(data []byte, p int) int {
	p++
	for {
		switch c := data[p]; {
		case c == '"':
			return p + 1
		case c == '\\':
			switch e := data[p+1]; e {
			case 'b':
				m.arena = append(m.arena, '\b')
			case 'f':
				m.arena = append(m.arena, '\f')
			case 'n':
				m.arena = append(m.arena, '\n')
			case 'r':
				m.arena = append(m.arena, '\r')
			case 't':
				m.arena = append(m.arena, '\t')
			case 'u':
				r := hex4(data[p+2 : p+6])
				p += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; anything else is U+FFFD
					// and leaves what follows to be read on its own.
					r2 := rune(-1)
					if p+6 <= len(data) && data[p] == '\\' && data[p+1] == 'u' {
						r2 = hex4(data[p+2 : p+6])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						p += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				m.arena = utf8.AppendRune(m.arena, r)
				continue
			default: // '"', '\\', '/'
				m.arena = append(m.arena, e)
			}
			p += 2
		case c < utf8.RuneSelf:
			m.arena = append(m.arena, c)
			p++
		default:
			// Invalid UTF-8 becomes U+FFFD, one per bad byte.
			r, size := utf8.DecodeRune(data[p:])
			m.arena = utf8.AppendRune(m.arena, r)
			p += size
		}
	}
}

// hex4 reads four hex digits, or returns -1.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// maxTags bounds a long-lived mapper's interned tags: past it, the
// mapper forgets them before its next document.
const maxTags = 1 << 14

// tag returns the interned tag of a member key.
func (m *Mapper) tag(key []byte) string {
	if t, ok := m.tags[string(key)]; ok {
		return t
	}
	if m.tags == nil {
		m.tags = make(map[string]string)
	}
	k := string(key)
	t := EncodeKey(k)
	m.tags[k] = t
	return t
}

// text appends an escaped text run and tokenizes the escaped bytes at
// their rendered offsets (entity escapes tokenize exactly as the XML
// scanner would see them, e.g. "&amp;" contributes the token "amp").
func (m *Mapper) text(s []byte) {
	start := len(m.buf)
	m.buf = appendEscapedText(m.buf, s)
	if m.g != nil {
		m.g.Text(m.buf[start:], start)
	}
}

// open writes a start tag; typ 0 means string (no type attribute).
func (m *Mapper) open(tag string, arrayItem bool, typ byte) {
	m.buf = append(m.buf, '<')
	m.buf = append(m.buf, tag...)
	if arrayItem {
		m.buf = append(m.buf, ` a="1"`...)
	}
	if typ != 0 {
		m.buf = append(m.buf, ` t="`...)
		m.buf = append(m.buf, typ, '"')
	}
	m.buf = append(m.buf, '>')
}

func (m *Mapper) close(tag string) {
	m.buf = append(m.buf, '<', '/')
	m.buf = append(m.buf, tag...)
	m.buf = append(m.buf, '>')
}

// newNode takes the next element from the document's slab and links it
// under parent; its children, when it will have some, get the next
// free run of the child slab.
func (m *Mapper) newNode(tag string, parent *xmlscan.Node, nChildren int) *xmlscan.Node {
	m.nodes = append(m.nodes, xmlscan.Node{Tag: tag, Start: len(m.buf), Parent: parent})
	n := &m.nodes[len(m.nodes)-1]
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	if nChildren > 0 {
		at := len(m.children)
		m.children = m.children[:at+nChildren]
		n.Children = m.children[at:at:(at + nChildren)]
	}
	return n
}

// element renders value v as an element with the given tag, returning
// the element node with its Start/End offsets.
func (m *Mapper) element(tag string, arrayItem bool, v int32, parent *xmlscan.Node) *xmlscan.Node {
	val := m.vals[v]
	kids := m.kids[val.child0:val.child1]
	nChildren := len(kids)
	if val.kind == kindObject {
		nChildren = 0
		for _, k := range kids {
			nChildren += m.memberElements(k)
		}
	}
	n := m.newNode(tag, parent, nChildren)
	switch val.kind {
	case kindNull:
		m.open(tag, arrayItem, 'z')
	case kindTrue:
		m.open(tag, arrayItem, 'b')
		m.text([]byte("true"))
	case kindFalse:
		m.open(tag, arrayItem, 'b')
		m.text([]byte("false"))
	case kindNumber:
		m.open(tag, arrayItem, 'n')
		m.text(m.arena[val.text0:val.text1])
	case kindString:
		m.open(tag, arrayItem, 0)
		m.text(m.arena[val.text0:val.text1])
	case kindObject:
		m.open(tag, arrayItem, 'o')
		for _, k := range kids {
			m.member(k, n)
		}
	case kindArray:
		// Reached for nested arrays (an array item that is itself an
		// array) and for a top-level array: items get the synthetic
		// ItemTag, never exploded, so [[1,2]] and [[1],[2]] stay
		// distinguishable.
		m.open(tag, arrayItem, 'v')
		for _, k := range kids {
			m.element(ItemTag, false, k, n)
		}
	}
	m.close(tag)
	n.End = len(m.buf)
	return n
}

// memberElements is how many elements object member v renders as.
func (m *Mapper) memberElements(v int32) int {
	if val := m.vals[v]; val.kind == kindArray && val.child1 > val.child0 {
		return int(val.child1 - val.child0)
	}
	return 1
}

// member renders one object member. Arrays explode into repeated
// siblings carrying the member's tag (marked a="1" so the mapping
// inverts); an empty array leaves a t="a" placeholder.
func (m *Mapper) member(v int32, parent *xmlscan.Node) {
	val := m.vals[v]
	tag := m.tag(m.arena[val.key0:val.key1])
	if val.kind != kindArray {
		m.element(tag, false, v, parent)
		return
	}
	if val.child1 == val.child0 {
		n := m.newNode(tag, parent, 0)
		m.open(tag, false, 'a')
		m.close(tag)
		n.End = len(m.buf)
		return
	}
	for _, item := range m.kids[val.child0:val.child1] {
		m.element(tag, true, item, parent)
	}
}
