package xmlscan

import "fmt"

// Node is one element in a parsed document tree.
type Node struct {
	// Tag is the element name.
	Tag string
	// Start is the byte offset of the '<' of the start tag.
	Start int
	// End is the byte offset one past the '>' of the end tag: the TReX
	// element identity within a document.
	End int
	// Parent is nil at the root.
	Parent *Node
	// Children in document order.
	Children []*Node
}

// Length is the element's extent in bytes (the paper's "length" column of
// the Elements table).
func (n *Node) Length() int { return n.End - n.Start }

// Path returns the label path from the document root to this node,
// root first.
func (n *Node) Path() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Tag)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Walk visits n and all descendants in document order. Returning false
// from fn prunes the subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Count returns the number of elements in the subtree, including n.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Parse builds the element tree of a document. Text runs are not stored in
// the tree (term offsets come from the scanner directly); the tree serves
// summary construction and extent computation.
func Parse(data []byte) (*Node, error) { return parse(data, nil) }

// parse is Parse, feeding every text run to g when g is not nil.
func parse(data []byte, g *Grouper) (*Node, error) {
	s := NewScanner(data)
	var root *Node
	var cur *Node
	for s.Next() {
		ev := s.Event()
		switch ev.Kind {
		case KindStart:
			node := &Node{Tag: ev.Name, Start: ev.Offset, Parent: cur}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("xmlscan: multiple root elements (%q then %q)", root.Tag, ev.Name)
				}
				root = node
			} else {
				cur.Children = append(cur.Children, node)
			}
			cur = node
		case KindEnd:
			if cur == nil {
				return nil, fmt.Errorf("xmlscan: unbalanced end tag %q", ev.Name)
			}
			cur.End = ev.Offset
			cur = cur.Parent
		case KindText:
			if g != nil {
				g.Text(ev.Text, ev.Offset)
			}
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("xmlscan: document has no root element")
	}
	return root, nil
}
