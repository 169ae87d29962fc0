// Package retrieval implements the three TReX retrieval strategies
// (Section 3 of the paper) over the index tables:
//
//   - ERA, the exhaustive retrieval algorithm (Figure 2), which scans
//     posting lists against per-sid element iterators and returns every
//     relevant element with its term frequencies. ERA only needs the
//     always-present Elements and PostingLists tables.
//
//   - TA, the threshold algorithm (Fagin et al.), in the style of the
//     TopX implementation the paper references: sorted accesses over
//     score-ordered RPLs with sid skipping, random accesses against the
//     base tables to complete candidate scores, and a top-k heap whose
//     management cost is measured separately so that ITA (TA with an
//     ideal, zero-cost heap) can be reported as in the paper's figures.
//
//   - Merge (Figure 3), which merges position-ordered ERPLs across terms,
//     sid by sid, and accumulates each element's combined score.
//
// All strategies return the same answers; they differ in which redundant
// indexes they need and where their time goes — which is exactly what the
// paper's experiments measure and what the self-managing index advisor
// exploits. At k > 0 each returns the k best in SortScored order; at
// k <= 0 each returns every answer in no particular order, and the caller
// ranks them (the engine's combine does, once).
package retrieval
