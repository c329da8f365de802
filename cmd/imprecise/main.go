// Command imprecise is the command-line front end to the IMPrECISE
// probabilistic XML integration library.
//
// Usage:
//
//	imprecise integrate -a A.xml -b B.xml [-dtd schema.dtd] [-rules genre,title,year,director] [-o out.xml] [-raw]
//	imprecise query     -db doc.xml -q '//movie[.//genre="Horror"]/title' [-top 10]
//	imprecise stats     -db doc.xml
//	imprecise worlds    -db doc.xml [-max 20]
//	imprecise feedback  -db doc.xml -q QUERY -value V -judgment correct|incorrect [-o out.xml]
//	imprecise generate  -scenario table1|confusing|typical [-n 12] [-seed 1] [-dir out]
//	imprecise serve     -data dir [-addr :8080] [-root tag] [-dtd schema.dtd] [-rules …] [-replica-of URL]
//
// Documents may be plain XML or probabilistic XML with <_prob>/<_poss>
// markers; output documents use the markers.
package main

import (
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.Run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "imprecise:", err)
		os.Exit(1)
	}
}
