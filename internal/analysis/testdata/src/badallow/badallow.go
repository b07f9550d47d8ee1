// Package badallow is a fixture for the allow diagnostics: an
// //iocheck:allow comment with no reason is itself a finding, and so is
// one that suppresses nothing while its rule runs, so audits cannot
// silently erode.
package badallow

//iocheck:allow simtime
func noReason() {}

// stale reads no wall clock: its audit outlived the finding it covered.
//
//iocheck:allow simtime boot stamp, audited before the clock read was removed
func stale() int64 { return 0 }
