// Package suppresstest exercises the driver's //lint:allow policy: a
// reason is mandatory, unknown analyzer names are rejected, and a
// directive suppresses only the analyzer it names.
package suppresstest

import "math/rand"

// banned has no directive: the finding stands.
func banned() int {
	return rand.Int() // want `rand\.Int is nondeterministic`
}

// allowed carries a well-formed directive: suppressed, no finding.
func allowed() int {
	return rand.Int() //lint:allow detrand fixture: accepted suppression with a reason
}

// lineAbove shows a directive covering the next line.
func lineAbove() int {
	//lint:allow detrand fixture: directive on its own line covers the line below
	return rand.Int()
}

// wrongAnalyzer names a real analyzer that did not produce the finding:
// the directive is well-formed (no directive error) but detrand's finding
// survives, and the maporder waiver — suppressing nothing — is stale.
func wrongAnalyzer() int {
	return rand.Int() /*lint:allow maporder fixture: suppressing a different analyzer*/ // want `rand\.Int is nondeterministic` `stale //lint:allow maporder`
}

// unknownName is rejected even with a reason, and suppresses nothing.
func unknownName() int {
	return rand.Int() /*lint:allow nosuchanalyzer a reason does not rescue an unknown name*/ // want `unknown analyzer "nosuchanalyzer"` `rand\.Int is nondeterministic`
}

// retiredName names an analyzer that no longer exists (its rules live in
// guardflow now): unknown, like any other name outside the suite.
func retiredName() int {
	return rand.Int() /*lint:allow guardcheck the rules moved to guardflow*/ // want `unknown analyzer "guardcheck"` `rand\.Int is nondeterministic`
}

// missingReason is rejected: the reason is mandatory.
func missingReason() int {
	return rand.Int() /*lint:allow detrand*/ // want `requires a reason` `rand\.Int is nondeterministic`
}
