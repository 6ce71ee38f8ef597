package image

// CheckSections exposes checkSections to the external fuzz targets.
func (im *Image) CheckSections() error { return im.checkSections() }
