// Package unusedexport_user is the only non-test caller of the
// unusedexport fixture.
package unusedexport_user

import (
	"fmt"

	"unusedexport"
	"unusedexport_api"
)

func run() error {
	fmt.Println(unusedexport.Used(), unusedexport.Level(1))
	fmt.Println(unusedexport.Map([]int{1, 2}, func(x int) int { return 2 * x }))
	fmt.Println(unusedexport.Box[int]{}.Get())
	return unusedexport_api.Dispatch(&unusedexport.Module{})
}
