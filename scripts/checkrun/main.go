// Command checkrun fails (exit 1) when a `go test -run` pattern in the CI
// workflow names a test that does not exist. `go test -run` runs nothing,
// and says nothing, for an alternative that matches no test, so a test that
// is removed or renamed silently drops out of the targeted race, chaos and
// fuzz steps that list it by name.
//
// Every `go test` command line of the workflow (default
// .github/workflows/ci.yml) that carries a -run pattern is checked: the
// pattern is split on its top-level '|' alternatives, and each alternative,
// as a regular expression, must match at least one test that
// `go test -list .` reports for the command's packages ("." when it names
// none). The pattern NONE, which deliberately runs no test, is skipped.
//
//	go run ./scripts/checkrun [workflow.yml]
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
)

// invocation is one `go test` command's -run pattern and packages.
type invocation struct {
	line    int
	pattern string
	pkgs    []string
}

func main() {
	path := ".github/workflows/ci.yml"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	invs, err := scan(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkrun:", err)
		os.Exit(1)
	}
	listed := map[string][]string{}
	failed := false
	for _, inv := range invs {
		key := strings.Join(inv.pkgs, " ")
		names, ok := listed[key]
		if !ok {
			if names, err = list(inv.pkgs); err != nil {
				fmt.Fprintln(os.Stderr, "checkrun:", err)
				os.Exit(1)
			}
			listed[key] = names
		}
		for _, alt := range strings.Split(inv.pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s:%d: -run alternative %q: %v\n", path, inv.line, alt, err)
				failed = true
				continue
			}
			if !matchesAny(re, names) {
				fmt.Fprintf(os.Stderr, "%s:%d: -run alternative %q matches no test in %s\n", path, inv.line, alt, key)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("checkrun: %d -run patterns in %s name existing tests\n", len(invs), path)
}

// runFlag matches a -run pattern, quoted or bare.
var runFlag = regexp.MustCompile(`-run[= ](?:'([^']*)'|(\S+))`)

// scan collects the `go test` invocations with a -run pattern. A command's
// packages are its arguments that are paths ("." or "./…"), up to the first
// pipe or redirection.
func scan(path string) ([]invocation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []invocation
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		_, cmd, ok := strings.Cut(sc.Text(), "go test ")
		if !ok {
			continue
		}
		m := runFlag.FindStringSubmatch(cmd)
		if m == nil || m[1]+m[2] == "NONE" {
			continue
		}
		inv := invocation{line: n, pattern: m[1] + m[2]}
		args, _, _ := strings.Cut(runFlag.ReplaceAllString(cmd, ""), "|")
		for _, a := range strings.Fields(args) {
			if a == "2>&1" || strings.HasPrefix(a, ">") {
				break
			}
			if strings.HasPrefix(a, ".") {
				inv.pkgs = append(inv.pkgs, a)
			}
		}
		if len(inv.pkgs) == 0 {
			inv.pkgs = []string{"."}
		}
		out = append(out, inv)
	}
	return out, sc.Err()
}

// list returns the top-level tests `go test -list .` reports for pkgs.
func list(pkgs []string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"test", "-list", "."}, pkgs...)...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -list . %s: %v", strings.Join(pkgs, " "), err)
	}
	var names []string
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "Test") {
			names = append(names, l)
		}
	}
	return names, nil
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
