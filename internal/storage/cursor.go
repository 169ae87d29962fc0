package storage

import "bytes"

// Cursor provides ordered sequential access over a Tree, the access path
// all three TReX retrieval methods are built on. A cursor is positioned
// "before" a key/value pair; Key/Value are valid after a positioning call
// reports true.
//
// Cursors observe a live tree. Mutating the tree while iterating
// invalidates the cursor (it must be re-Seeked); TReX never mutates tables
// during retrieval.
//
// A Cursor is not safe for concurrent use, but any number of cursors may
// iterate the same tree from different goroutines concurrently (the page
// cache under them is sharded and their stat counting is atomic): give
// each goroutine its own Cursor.
type Cursor struct {
	tree  *Tree
	leaf  *node
	index int
	valid bool
	// frames backs SeekFloor's descent path, so a reused cursor seeks
	// without allocating; a tree deeper than the array spills to the heap.
	frames [8]floorFrame
}

// floorFrame is one branch on SeekFloor's descent path: the node and the
// child index taken there.
type floorFrame struct {
	n  *node
	ci int
}

// Cursor returns a new unpositioned cursor.
func (t *Tree) Cursor() *Cursor { return &Cursor{tree: t} }

// First positions the cursor at the smallest key. It reports whether the
// tree is non-empty.
func (c *Cursor) First() (bool, error) {
	c.tree.db.pager.countSeek()
	leaf, err := c.tree.firstLeaf()
	if err != nil {
		return false, err
	}
	c.leaf = leaf
	c.index = 0
	c.valid = leaf != nil && len(leaf.cells) > 0
	if c.valid {
		return true, nil
	}
	return c.skipEmptyLeaves()
}

// Seek positions the cursor at the smallest key >= key. It reports whether
// such a key exists.
func (c *Cursor) Seek(key []byte) (bool, error) {
	c.tree.db.pager.countSeek()
	c.valid = false
	if c.tree.root == nilPage {
		return false, nil
	}
	leaf, err := c.tree.descend(key)
	if err != nil {
		return false, err
	}
	i, _ := leaf.search(key)
	c.leaf = leaf
	c.index = i
	if i < len(leaf.cells) {
		c.valid = true
		return true, nil
	}
	return c.skipEmptyLeaves()
}

// SeekForward positions the cursor exactly where Seek(key) would, for a
// caller that only ever moves forward (a merge join's inner side, ERA's
// extent iterators). When key lies between the cursor's current key and
// the last key of the leaf it already holds, the answer is in that leaf:
// it is found by galloping from the current cell and bisecting the last
// stride, which touches no page and allocates nothing, and is counted as
// a step (Stats.Nexts) rather than a seek. Any other target — past the
// leaf, below the cursor, or from an unpositioned cursor — is an ordinary
// Seek. Like Next, it reads the leaf the cursor holds, so a write to the
// tree invalidates the cursor until its next Seek.
func (c *Cursor) SeekForward(key []byte) (bool, error) {
	if !c.valid {
		return c.Seek(key)
	}
	cells := c.leaf.cells
	lo, last := c.index, len(cells)-1
	switch cmp := bytes.Compare(key, cells[lo].key); {
	case cmp < 0:
		return c.Seek(key)
	case cmp == 0:
		c.tree.db.pager.countNext()
		return true, nil
	}
	if bytes.Compare(key, cells[last].key) > 0 {
		return c.Seek(key)
	}
	// cells[lo] < key <= cells[last]: gallop until a cell at or above key
	// bounds the stride, then bisect (lo, hi].
	hi := lo + 1
	for step := 2; hi < last && bytes.Compare(cells[hi].key, key) < 0; step <<= 1 {
		lo = hi
		hi += step
	}
	if hi > last {
		hi = last
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cells[mid].key, key) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	c.index = hi
	c.tree.db.pager.countNext()
	return true, nil
}

// SeekFloor positions the cursor at the greatest key <= key. It reports
// whether such a key exists. Posting-list random access uses this to find
// the fragment whose first position precedes a probe target.
func (c *Cursor) SeekFloor(key []byte) (bool, error) {
	c.tree.db.pager.countSeek()
	c.valid = false
	if c.tree.root == nilPage {
		return false, nil
	}
	// Descend, remembering the child index taken at each branch so we can
	// back up to a left subtree when the target leaf has no key <= key.
	stack := c.frames[:0]
	n, err := c.tree.db.pager.node(c.tree.root)
	if err != nil {
		return false, err
	}
	for !n.isLeaf {
		ci := n.childIndexFor(key)
		stack = append(stack, floorFrame{n: n, ci: ci})
		n, err = c.tree.db.pager.node(n.children[ci])
		if err != nil {
			return false, err
		}
	}
	i, found := n.search(key)
	if found {
		c.leaf, c.index, c.valid = n, i, true
		return true, nil
	}
	if i > 0 {
		c.leaf, c.index, c.valid = n, i-1, true
		return true, nil
	}
	// The whole leaf is greater than key: climb to the nearest ancestor
	// with a left sibling subtree and take its rightmost leaf cell.
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.ci == 0 {
			continue
		}
		n, err = c.tree.db.pager.node(f.n.children[f.ci-1])
		if err != nil {
			return false, err
		}
		for !n.isLeaf {
			n, err = c.tree.db.pager.node(n.children[len(n.children)-1])
			if err != nil {
				return false, err
			}
		}
		if len(n.cells) == 0 {
			continue // lazily-emptied leaf; keep climbing
		}
		c.leaf, c.index, c.valid = n, len(n.cells)-1, true
		return true, nil
	}
	return false, nil
}

// Next advances to the next key in order. It reports whether the cursor
// remains valid.
func (c *Cursor) Next() (bool, error) {
	if !c.valid {
		return false, nil
	}
	c.tree.db.pager.countNext()
	c.index++
	if c.index < len(c.leaf.cells) {
		return true, nil
	}
	return c.skipEmptyLeaves()
}

// skipEmptyLeaves advances across the sibling chain until a cell is found.
func (c *Cursor) skipEmptyLeaves() (bool, error) {
	for c.leaf != nil && c.index >= len(c.leaf.cells) {
		if c.leaf.next == nilPage {
			c.valid = false
			return false, nil
		}
		next, err := c.tree.db.pager.node(c.leaf.next)
		if err != nil {
			c.valid = false
			return false, err
		}
		c.leaf = next
		c.index = 0
	}
	c.valid = c.leaf != nil
	return c.valid, nil
}

// Valid reports whether the cursor is positioned on a pair.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key. The slice is owned by the cursor and only
// valid until the next positioning call; copy it to retain it.
func (c *Cursor) Key() []byte {
	if !c.valid {
		return nil
	}
	return c.leaf.cells[c.index].key
}

// Value returns the current value under the same ownership rules as Key.
func (c *Cursor) Value() []byte {
	if !c.valid {
		return nil
	}
	return c.leaf.cells[c.index].val
}

// SeekPrefix positions the cursor at the first key with the given prefix
// and reports whether one exists.
func (c *Cursor) SeekPrefix(prefix []byte) (bool, error) {
	ok, err := c.Seek(prefix)
	if err != nil || !ok {
		return false, err
	}
	if !bytes.HasPrefix(c.Key(), prefix) {
		c.valid = false
		return false, nil
	}
	return true, nil
}

// NextPrefix advances within keys sharing prefix, invalidating the cursor
// once the prefix is left.
func (c *Cursor) NextPrefix(prefix []byte) (bool, error) {
	ok, err := c.Next()
	if err != nil || !ok {
		return false, err
	}
	if !bytes.HasPrefix(c.Key(), prefix) {
		c.valid = false
		return false, nil
	}
	return true, nil
}
