//go:build tivadebug

package rowpool

// debug arms the poison and double-release checks (see the package doc).
const debug = true
