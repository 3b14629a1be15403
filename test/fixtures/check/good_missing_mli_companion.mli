val answer : int
