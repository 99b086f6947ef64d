package cache

// Pages reports how many of c's tag-store pages an install has
// allocated, and the length of its page table.
func Pages(c *Cache) (allocated, slots int) {
	for _, p := range c.pages {
		if p != nil {
			allocated++
		}
	}
	return allocated, len(c.pages)
}
