// Package mobility produces contact schedules from mobility models and
// trace files. It implements every mobility source the paper uses:
//
//   - ParseTrace / WriteTrace: a line-oriented encounter-trace format
//     compatible with CRAWDAD Haggle-style records (node node start end),
//     so the real cambridge/haggle/imote trace can be dropped in.
//   - SyntheticCambridge: a seeded generator reproducing the first-order
//     statistics of the Cambridge iMote trace the paper uses (12 devices,
//     524,162 s span, heavy-tailed inter-contact times, random contact
//     durations, diurnal activity) — the substitution documented in
//     DESIGN.md §3.1.
//   - SubscriberPointRWP: the paper's modified Random-WayPoint model
//     (§IV): nodes hop between subscriber points in a 1 km² area, pause
//     up to 1000 s, move at 0–10 m/s, and encounter each other when
//     co-located at a point, with contacts capped at 500 s.
//   - ClassicRWP: textbook RWP with range-based contact detection,
//     provided because the paper discusses (and avoids) its pathologies.
//   - ControlledInterval: the Fig. 14 scenario generator — n nodes, a
//     bounded number of encounters per node, and a configurable maximum
//     inter-encounter interval.
//
// Every generator is deterministic under an explicit seed and has one
// implementation, its Stream: a pull-based contact.Source emitting the
// contacts in canonical order from an O(nodes) working set (per-point
// and grid occupancy indexes, lazy waypoint paths, lookahead-heap,
// merge-heap or start-step-bucket emission; OpenTraceSource streams
// trace files from disk in O(1) memory). contact.Materialize drains one
// into a Schedule for callers that need random access. DESIGN.md §8
// describes the streaming architecture; the tests hold every Stream,
// contact for contact, to an independent materializing reference
// generator (reference_test.go).
package mobility
