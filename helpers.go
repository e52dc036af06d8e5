package accqoc

import (
	"sort"

	"accqoc/internal/grouping"
)

// sortUnique orders unique groups by descending frequency then key, for
// deterministic runs.
func sortUnique(us []*grouping.UniqueGroup) {
	sort.Slice(us, func(i, j int) bool {
		if us[i].Count != us[j].Count {
			return us[i].Count > us[j].Count
		}
		return us[i].Key < us[j].Key
	})
}
