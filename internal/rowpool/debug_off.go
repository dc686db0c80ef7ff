//go:build !tivadebug

package rowpool

// debug is off in release builds: Put and Get do no O(n) checking beyond
// the zeroing Get always does.
const debug = false
