package xmlcodec

import "repro/internal/pxml"

// DecodeReference decodes src with encoding/xml's tokenizer alone: the
// path Decode takes for whatever the scanner declines.
func DecodeReference(src string) (*pxml.Tree, error) { return decodeReference([]byte(src)) }

// Scan decodes src with the byte scanner alone and reports whether it
// took src.
func Scan(src string) (*pxml.Tree, bool) { return scan([]byte(src)) }
