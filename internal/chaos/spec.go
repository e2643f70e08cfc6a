package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// ParseSpec parses the -chaos flag value: inline JSON (`{"rules": [...]}`)
// or `@path/to/spec.json`. A bare rule list (`[{"fault": ...}]`) is also
// accepted as shorthand for a spec with only rules. Decoding is strict: a
// field Rule does not know — a misspelling, or a selector the injector
// does not have — is an error, never a rule that silently fires on every
// connection.
func ParseSpec(s string) (Spec, error) {
	raw := strings.TrimSpace(s)
	if name, ok := strings.CutPrefix(raw, "@"); ok {
		b, err := os.ReadFile(name)
		if err != nil {
			return Spec{}, fmt.Errorf("chaos: read spec: %w", err)
		}
		raw = strings.TrimSpace(string(b))
	}
	var spec Spec
	var into any = &spec
	if strings.HasPrefix(raw, "[") {
		into = &spec.Rules
	}
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return Spec{}, fmt.Errorf("chaos: parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("chaos: parse spec: data after the document")
	}
	if len(spec.Rules) == 0 {
		return Spec{}, fmt.Errorf("chaos: spec has no rules")
	}
	for i, r := range spec.Rules {
		if err := r.validate(); err != nil {
			return Spec{}, fmt.Errorf("%w (rule %d)", err, i)
		}
	}
	return spec, nil
}
