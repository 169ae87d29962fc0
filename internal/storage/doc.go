// Package storage implements the ordered key/value storage engine that
// backs every TReX index table.
//
// The original TReX prototype stored its four indexed tables (Elements,
// PostingLists, RPLs and ERPLs) in BerkeleyDB B-trees. This package is the
// pure-Go substitute: a single-file, page-based B+tree store that provides
// the two access paths those tables need:
//
//   - keyed lookup (Get), and
//   - ordered sequential access from an arbitrary start key (Cursor.Seek
//     followed by Cursor.Next, or Cursor.SeekForward for a reader whose
//     targets only grow), which is what the ERA, TA and Merge iterators
//     are built on.
//
// A DB holds any number of named trees (tables). All keys and values are
// opaque byte slices; key order is plain bytes.Compare, so callers encode
// composite keys with order-preserving codecs (see package index).
//
// Concurrency model: a DB is safe for concurrent readers OR a single
// writer; it does not implement transactions or a WAL. TReX tables are
// bulk-built once and then read-mostly, matching how the paper uses BDB.
//
// Durability: pages are written through an LRU page cache; Flush writes
// all dirty pages and the meta page. The file format is checksummed
// (meta page) and versioned.
package storage
