package corpus

import (
	"fmt"

	"trex/internal/jsoncorpus"
	"trex/internal/xmlscan"
)

// Format identifies which document universe a collection lives in. The
// index machinery is structural and format-blind — everything downstream
// of ParseDoc/Parser sees one element tree universe — so the format is
// a property of the corpus (and is persisted in the index meta so an
// opened index knows how to interpret stored document bytes).
type Format int

const (
	// FormatXML documents are XML bytes parsed by xmlscan.
	FormatXML Format = iota
	// FormatJSON documents are JSON bytes mapped into the element
	// universe by jsoncorpus (objects → elements, keys → tags, arrays →
	// repeated siblings). Offsets refer to the canonical XML rendering.
	FormatJSON
)

func (f Format) String() string {
	switch f {
	case FormatXML:
		return "xml"
	case FormatJSON:
		return "json"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat inverts Format.String.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "xml":
		return FormatXML, nil
	case "json":
		return FormatJSON, nil
	default:
		return 0, fmt.Errorf("corpus: unknown format %q (want xml or json)", s)
	}
}

// ParseDoc builds the element tree of one document in either universe.
func ParseDoc(f Format, data []byte) (*xmlscan.Node, error) {
	if f == FormatJSON {
		d, err := jsoncorpus.Map(data, nil)
		if err != nil {
			return nil, err
		}
		return d.Root, nil
	}
	return xmlscan.Parse(data)
}

// Parser parses documents of either universe and groups their terms,
// reusing its scratch from one document to the next (see
// xmlscan.Grouper and jsoncorpus.Mapper). One worker keeps one Parser;
// a Parser is not safe for concurrent use. The zero value is ready to
// use.
type Parser struct {
	g xmlscan.Grouper
	m jsoncorpus.Mapper
}

// Parse builds the element tree of one document and groups its terms,
// in one pass over the bytes. Offsets are into the document's canonical
// rendering (the bytes themselves for XML).
func (p *Parser) Parse(f Format, data []byte) (*xmlscan.Node, xmlscan.TermGroups, error) {
	if f == FormatJSON {
		d, err := p.m.Map(data, &p.g)
		if err != nil {
			return nil, xmlscan.TermGroups{}, err
		}
		return d.Root, d.Groups, nil
	}
	return p.g.Parse(data)
}

// RenderXML returns the canonical rendering all element offsets refer
// to: the document bytes themselves for XML, the jsoncorpus rendering
// for JSON. Snippet extraction slices this.
func RenderXML(f Format, data []byte) ([]byte, error) {
	if f == FormatJSON {
		return jsoncorpus.ToXML(data)
	}
	return data, nil
}
